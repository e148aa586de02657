package delta

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/ir"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// wireSegment attaches a fresh segment to a system, the way the
// serving layer does: base statistics snapshot from the full-text
// stage, overlay on the query engine, auxiliary documents for
// hydration.
func wireSegment(sys *core.System, strat ontoscore.Strategy, cfg Config) *Segment {
	seg := NewSegment(sys.Corpus(), sys.Builder().LocalTextStats(), sys.Builder().Side(), cfg)
	sys.SetOverlay(seg.Overlay(strat, -1, nil))
	sys.SetAuxDocs(seg)
	return seg
}

// compareSearches asserts two systems answer every test query
// identically — results (Dewey IDs, exact float scores, document
// names, element paths, keyword matches) and snippets alike — at
// several (k, offset) windows so
// the block-max top-k pruning stays exact under a delta overlay too
// (overlaid keywords merge as plain lists; base-only keywords keep
// their compact block bounds).
func compareSearches(t *testing.T, label string, got, want *core.System) {
	t.Helper()
	windows := []struct{ k, offset int }{{10, 0}, {1, 0}, {3, 2}}
	for _, q := range testQueries {
		for _, win := range windows {
			req := core.SearchRequest{Query: q, K: win.k, Offset: win.offset, Explain: true}
			g, err := got.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: query %q: %v", label, q, err)
			}
			w, err := want.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: reference query %q: %v", label, q, err)
			}
			if !reflect.DeepEqual(g.Results, w.Results) {
				t.Errorf("%s: query %q k=%d offset=%d: results diverge\n got: %+v\nwant: %+v",
					label, q, win.k, win.offset, g.Results, w.Results)
			}
			if !reflect.DeepEqual(g.Snippets, w.Snippets) {
				t.Errorf("%s: query %q k=%d offset=%d: snippets diverge\n got: %q\nwant: %q",
					label, q, win.k, win.offset, g.Snippets, w.Snippets)
			}
		}
	}
}

// scriptOp is one mutation of the differential script; body names the
// fixture document whose serialized form is put (replacements put a
// different document's content under an existing name).
type scriptOp struct {
	kind OpKind
	name string
	body string
}

// differentialScript exercises every delta transition over a base of
// baseN documents: adds, a replace of a base document, a base
// tombstone, a delete of a delta document, and a replace of a delta
// document.
func differentialScript(fx *fixture) []scriptOp {
	n := fx.names
	return []scriptOp{
		{OpPut, n[6], n[6]},  // add
		{OpPut, n[7], n[7]},  // add
		{OpPut, n[2], n[8]},  // replace base document content
		{OpDelete, n[3], ""}, // tombstone base document
		{OpPut, n[9], n[9]},  // add ...
		{OpDelete, n[9], ""}, // ... and delete it again (delta tombstone)
		{OpPut, n[6], n[3]},  // replace a delta document
	}
}

// trackScript independently computes the expected end state of a
// script: the live body per name and the delta-assigned document ID
// per delta-resident name.
func trackScript(fx *fixture, baseN int, script []scriptOp) (live map[string]string, deltaID map[string]int32) {
	live = map[string]string{}
	for _, n := range fx.names[:baseN] {
		live[n] = n
	}
	deltaID = map[string]int32{}
	nextID := int32(baseN) // base corpus assigned 0..baseN-1
	for _, o := range script {
		if o.kind == OpPut {
			live[o.name] = o.body
			deltaID[o.name] = nextID
			nextID++
		} else {
			delete(live, o.name)
			delete(deltaID, o.name)
		}
	}
	return live, deltaID
}

// replayScript applies the script to a segment op by op.
func replayScript(t *testing.T, seg *Segment, fx *fixture, script []scriptOp) {
	t.Helper()
	for i, o := range script {
		op := Op{Seq: uint64(i + 1), Kind: o.kind, Name: o.name}
		if o.kind == OpPut {
			op.Body = fx.bodies[o.body]
		}
		if err := seg.Apply(op); err != nil {
			t.Fatalf("apply %d (%s %s): %v", i+1, o.kind, o.name, err)
		}
	}
}

// referenceCorpus assembles the corpus a full rebuild would produce
// for the tracked end state: surviving base documents keep their
// nodes and IDs; delta documents are re-parsed from their bodies and
// carry the IDs the segment assigned.
func referenceCorpus(t *testing.T, fx *fixture, base *xmltree.Corpus, live map[string]string, deltaID map[string]int32) *xmltree.Corpus {
	t.Helper()
	ref := xmltree.NewCorpus()
	for _, d := range base.Docs() {
		if _, isDelta := deltaID[d.Name]; isDelta {
			continue // replaced: the delta's version wins
		}
		if _, ok := live[d.Name]; !ok {
			continue // tombstoned
		}
		ref.AddExisting(d)
	}
	names := make([]string, 0, len(deltaID))
	for name := range deltaID {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return deltaID[names[i]] < deltaID[names[j]] })
	for _, name := range names {
		doc := fx.parse(t, name, fx.bodies[live[name]])
		doc.ID = deltaID[name]
		doc.AssignDewey()
		ref.AddExisting(doc)
	}
	return ref
}

// TestDifferentialBaseDeltaVsRebuild is the exactness contract: after
// any mix of adds, replacements and deletions, a base+delta system
// answers byte-identically to a system rebuilt from scratch over the
// resulting document set — across all four OntoScore strategies and
// both merge algorithms.
func TestDifferentialBaseDeltaVsRebuild(t *testing.T) {
	fx := newFixture(t, 9, 7)
	const baseN = 6
	for _, strat := range ontoscore.Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Strategy = strat
			base := fx.baseCorpus(t, baseN)
			sys := core.NewMulti(base, fx.coll, cfg)
			seg := wireSegment(sys, strat, Config{Strategies: []ontoscore.Strategy{strat}, DIL: cfg.DIL})

			// A clean overlay must not perturb anything.
			plain := core.NewMulti(fx.baseCorpus(t, baseN), fx.coll, cfg)
			compareSearches(t, "clean overlay", sys, plain)

			script := differentialScript(fx)
			replayScript(t, seg, fx, script)
			live, deltaID := trackScript(fx, baseN, script)

			ref := referenceCorpus(t, fx, base, live, deltaID)
			refSys := core.NewMulti(ref, fx.coll, cfg)
			compareSearches(t, "after script", sys, refSys)

			if got, want := seg.Docs(), 3; got != want {
				t.Errorf("live delta docs = %d, want %d", got, want)
			}
			if got, want := seg.BaseTombstones(), 2; got != want {
				t.Errorf("base tombstones = %d, want %d", got, want)
			}
		})
	}
}

// TestDifferentialAfterRebase re-runs the comparison after a rebase
// with pending ops — the crash-recovery shape, where a reload happens
// while the WAL still holds unapplied records. A rebase folds every op
// into one state before building, so the second replay lands a put, a
// re-put of the same name and a delete of it in one fold.
func TestDifferentialAfterRebase(t *testing.T) {
	fx := newFixture(t, 9, 7)
	const baseN = 6
	strat := ontoscore.StrategyRelationships
	cfg := core.DefaultConfig()
	cfg.Strategy = strat

	base := fx.baseCorpus(t, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	seg := wireSegment(sys, strat, Config{Strategies: []ontoscore.Strategy{strat}, DIL: cfg.DIL})

	n := fx.names
	scripts := map[string][]scriptOp{
		"after rebase": differentialScript(fx),
		"after put, re-put and delete in one replay": append(differentialScript(fx),
			scriptOp{OpPut, n[8], n[8]},
			scriptOp{OpPut, n[8], n[4]},
			scriptOp{OpDelete, n[8], ""},
		),
	}
	for _, label := range []string{"after rebase", "after put, re-put and delete in one replay"} {
		script := scripts[label]
		ops := make([]Op, 0, len(script))
		for i, o := range script {
			op := Op{Seq: uint64(i + 1), Kind: o.kind, Name: o.name}
			if o.kind == OpPut {
				op.Body = fx.bodies[o.body]
			}
			ops = append(ops, op)
		}
		before := seg.Version()
		if err := seg.Rebase(base, sys.Builder().LocalTextStats(), sys.Builder().Side(), ops); err != nil {
			t.Fatal(err)
		}
		if seg.Version() <= before {
			t.Fatalf("%s: version did not advance across rebase: %d -> %d", label, before, seg.Version())
		}
		if got, want := seg.AppliedSeq(), uint64(len(ops)); got != want {
			t.Fatalf("%s: applied seq %d, want %d", label, got, want)
		}

		live, deltaID := trackScript(fx, baseN, script)
		ref := referenceCorpus(t, fx, base, live, deltaID)
		refSys := core.NewMulti(ref, fx.coll, cfg)
		compareSearches(t, label, sys, refSys)
	}
}

// An applied write re-indexes only the delta documents: every state's
// builders read the base generation's ontology side — the very
// computers, never copies — so an acknowledged ingest constructs no
// OntoScore computer. A rebase onto another generation's side moves
// every builder to that side.
func TestApplyBuildsNoComputer(t *testing.T) {
	fx := newFixture(t, 9, 7)
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(t, 6)
	sys := core.NewMulti(base, fx.coll, cfg)
	side := sys.Builder().Side()
	seg := wireSegment(sys, cfg.Strategy, Config{Strategies: ontoscore.Strategies(), DIL: cfg.DIL})
	sameSide := func(want *ontoscore.Side) {
		t.Helper()
		st := seg.state.Load()
		if len(st.builders) != len(ontoscore.Strategies()) {
			t.Fatalf("%d delta builders, want one per strategy", len(st.builders))
		}
		for strat, b := range st.builders {
			for _, ont := range fx.coll.Ontologies() {
				if b.Side() != want || b.Computer(ont.SystemID) != want.Computer(ont.SystemID) {
					t.Fatalf("%s delta builder holds a computer of its own for %s", strat, ont.SystemID)
				}
			}
		}
	}
	for i, name := range fx.names[6:] {
		if err := seg.Apply(Op{Seq: uint64(i + 1), Kind: OpPut, Name: name, Body: fx.bodies[name]}); err != nil {
			t.Fatal(err)
		}
		sameSide(side)
	}
	next := ontoscore.NewSide(fx.coll, cfg.DIL.Onto)
	if err := seg.Rebase(base, sys.Builder().LocalTextStats(), next, []Op{{Seq: 1, Kind: OpPut, Name: fx.names[6], Body: fx.bodies[fx.names[6]]}}); err != nil {
		t.Fatal(err)
	}
	sameSide(next)
}

// A put's statistics follow the full-text stage's one tokenization and
// DF rule: the summed contributions of a corpus's documents equal the
// local statistics of a stage built over the corpus — N, total length
// and every DF — under the default text options and without tag names,
// with zero-token elements and repeated tokens among the elements.
func TestDocContributionsSumToStageStats(t *testing.T) {
	fx := newFixture(t, 12, 3)
	corpus := fx.baseCorpus(t, len(fx.names))
	edge := fx.parse(t, "edge.xml", []byte(`<doc><_ code="x"/><p>asthma asthma attack</p><empty/></doc>`))
	corpus.Add(edge)
	for name, text := range map[string]xmltree.TextOptions{"default": xmltree.DefaultTextOptions(), "no tags": {}} {
		t.Run(name, func(t *testing.T) {
			zero, repeated := false, false
			for _, n := range edge.Nodes() {
				toks := xmltree.Tokenize(xmltree.TextDescription(n, text))
				zero = zero || len(toks) == 0
				for i := range toks {
					repeated = repeated || slices.Contains(toks[i+1:], toks[i])
				}
			}
			if !zero || !repeated {
				t.Fatalf("edge document lost its cases: zero-token element %v, repeated token %v", zero, repeated)
			}
			params := dil.DefaultParams()
			params.Text = text
			var parts []ir.Stats
			for _, d := range corpus.Docs() {
				parts = append(parts, docContribution(d, text))
			}
			side := ontoscore.NewSide(fx.coll, params.Onto)
			want := dil.NewBuilders(corpus, side, []ontoscore.Strategy{ontoscore.StrategyNone}, params)[ontoscore.StrategyNone].LocalTextStats()
			if got := ir.MergeStats(parts...); !reflect.DeepEqual(got, want) {
				t.Errorf("summed contributions N=%d TotalLen=%d (%d terms), stage N=%d TotalLen=%d (%d terms)",
					got.N, got.TotalLen, len(got.DF), want.N, want.TotalLen, len(want.DF))
			}
		})
	}
}
