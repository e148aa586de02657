package delta

import (
	"context"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// A dirty read answers for the state it acquired. The first keyword
// build of a query stalls on the ontology path; meanwhile a write
// tombstones a base document. The answer must still be the acquired
// state's — statistics, normalization divisors and tombstones alike —
// not a list scored under the new state and merged with the old
// delta.
func TestDirtyReadPinnedToAcquiredState(t *testing.T) {
	defer faultinject.DisableAll()
	fx := newFixture(t, 9, 7)
	const baseN = 6
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(t, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	seg := wireSegment(sys, cfg.Strategy, Config{Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL})
	script := differentialScript(fx)[:3]
	replayScript(t, seg, fx, script)
	live, deltaID := trackScript(fx, baseN, script)
	acquired := core.NewMulti(referenceCorpus(t, fx, base, live, deltaID), fx.coll, cfg)

	req := core.SearchRequest{Query: "asthma medications", K: 100}
	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{Mode: faultinject.ModeLatency, Delay: 150 * time.Millisecond, Count: 1})
	type answer struct {
		resp *core.SearchResponse
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := sys.Query(context.Background(), req)
		done <- answer{resp, err}
	}()
	for {
		if _, fired := faultinject.Counts(dil.FPOntoResolve); fired > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := seg.Apply(Op{Seq: 4, Kind: OpDelete, Name: fx.names[3]}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("the query finished before the write landed; the test did not overlap them")
	default:
	}
	got := <-done
	faultinject.Disable(dil.FPOntoResolve)
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, err := acquired.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 {
		t.Fatal("the acquired state answers nothing; the test checks nothing")
	}
	if !reflect.DeepEqual(got.resp.Results, want.Results) {
		t.Fatalf("dirty read diverges from a rebuild of the state it acquired\n got: %+v\nwant: %+v", got.resp.Results, want.Results)
	}
}

// When the ontology path fails under a dirty overlay, the keyword
// degrades as a whole: base and delta postings both score IR-only, as
// a StrategyNone system over the live corpus does.
func TestDirtyReadDegradesWholeKeyword(t *testing.T) {
	defer faultinject.DisableAll()
	fx := newFixture(t, 9, 7)
	const baseN = 6
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(t, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	seg := wireSegment(sys, cfg.Strategy, Config{Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL})
	n := fx.names
	script := []scriptOp{
		{OpPut, n[6], n[6]},
		{OpPut, n[7], n[7]},
		{OpDelete, n[3], ""},
	}
	replayScript(t, seg, fx, script)
	live, deltaID := trackScript(fx, baseN, script)
	irCfg := cfg
	irCfg.Strategy = ontoscore.StrategyNone
	irOnly := core.NewMulti(referenceCorpus(t, fx, base, live, deltaID), fx.coll, irCfg)

	req := core.SearchRequest{Query: "patient", K: 100}
	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{})
	got, err := sys.Query(context.Background(), req)
	faultinject.Disable(dil.FPOntoResolve)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Info.Degraded || !reflect.DeepEqual(got.Info.DegradedKeywords, []string{"patient"}) {
		t.Fatalf("info = %+v, want the keyword degraded", got.Info)
	}
	want, err := irOnly.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fromDelta := 0
	for _, r := range want.Results {
		if r.Root.DocID() >= baseN {
			fromDelta++
		}
	}
	if fromDelta == 0 || fromDelta == len(want.Results) {
		t.Fatalf("%d of %d results from delta documents; the test needs both sides", fromDelta, len(want.Results))
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("degraded dirty read diverges from IR-only scoring of the live corpus\n got: %+v\nwant: %+v", got.Results, want.Results)
	}
}

// Delta documents are numbered above every base document, so a pinned
// build's base postings followed by the delta's are already in Dewey
// order — after adds, a replacement of a base document, tombstones and
// a rebase alike.
func TestPinnedListsInDeweyOrder(t *testing.T) {
	fx := newFixture(t, 9, 7)
	const baseN = 6
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(t, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	seg := wireSegment(sys, cfg.Strategy, Config{Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL})
	check := func(label string) {
		t.Helper()
		st := seg.state.Load()
		for id := range st.byID {
			if id <= maxDocID(st.base) {
				t.Fatalf("%s: delta document %d not above the base's IDs (max %d)", label, id, maxDocID(st.base))
			}
		}
		view := seg.Overlay(cfg.Strategy, -1, nil).Acquire()
		b := view.Pin(sys.Builder())
		ids := b.IDs()
		for _, kw := range sys.Builder().Vocabulary(0) {
			list, err := b.BuildKeywordE(kw)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range list {
				if id := ids.ID(p.Key); p.Doc != id[0] {
					t.Fatalf("%s %q: posting %v carries document %d", label, kw, id, p.Doc)
				}
				if i == 0 {
					continue
				}
				prev, cur := ids.ID(list[i-1].Key), ids.ID(p.Key)
				if list[i-1].Key >= p.Key || prev.Compare(cur) >= 0 {
					t.Fatalf("%s %q: postings %v, %v out of key or Dewey order", label, kw, prev, cur)
				}
			}
		}
	}
	script := differentialScript(fx)
	for i, o := range script {
		op := Op{Seq: uint64(i + 1), Kind: o.kind, Name: o.name}
		if o.kind == OpPut {
			op.Body = fx.bodies[o.body]
		}
		if err := seg.Apply(op); err != nil {
			t.Fatal(err)
		}
		check(o.kind.String() + " " + o.name)
	}
	if err := seg.Rebase(base, sys.Builder().LocalTextStats(), sys.Builder().Side(), nil); err != nil {
		t.Fatal(err)
	}
	replayScript(t, seg, fx, script)
	check("after rebase")
}

// recycleState wires a dirty overlay over a 150-document base — one
// base tombstone and eight pending documents — for the list-recycling
// tests, whose keyword's pinned list is large enough that its array
// dominates a read's allocations. It returns the system, its segment,
// the script applied, and the base corpus.
func recycleState(t *testing.T, fx *fixture, cfg core.Config) (*core.System, *Segment, []scriptOp, *xmltree.Corpus) {
	t.Helper()
	const baseN = 150
	base := fx.baseCorpus(t, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	seg := wireSegment(sys, cfg.Strategy, Config{Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL})
	script := []scriptOp{{OpDelete, fx.names[1], ""}}
	for _, name := range fx.names[baseN:] {
		script = append(script, scriptOp{OpPut, name, name})
	}
	replayScript(t, seg, fx, script)
	return sys, seg, script, base
}

// Two readers of one dirty state coalesce on one keyword's flight: the
// first stalls on the ontology path, the second acquires the same state
// and joins the build. Both answer for the acquired state from the one
// encoded list the build returned.
func TestDirtyReadCoalescedReaders(t *testing.T) {
	defer faultinject.DisableAll()
	fx := newFixture(t, 158, 3)
	cfg := core.DefaultConfig()
	sys, _, script, base := recycleState(t, fx, cfg)
	live, deltaID := trackScript(fx, len(base.Docs()), script)
	acquired := core.NewMulti(referenceCorpus(t, fx, base, live, deltaID), fx.coll, cfg)
	const kw = "medication"
	req := core.SearchRequest{Query: kw, K: 10}
	want, err := acquired.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 {
		t.Fatal("the acquired state answers nothing; the test checks nothing")
	}
	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{Mode: faultinject.ModeLatency, Delay: 200 * time.Millisecond, Count: 1})
	type answer struct {
		resp *core.SearchResponse
		err  error
	}
	done := make(chan answer, 2)
	read := func() {
		resp, err := sys.Query(context.Background(), req)
		done <- answer{resp, err}
	}
	go read()
	for {
		if _, fired := faultinject.Counts(dil.FPOntoResolve); fired > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go read()
	answers := []answer{<-done, <-done}
	hits, _ := faultinject.Counts(dil.FPOntoResolve)
	faultinject.Disable(dil.FPOntoResolve)
	if systems := int64(len(sys.Builder().Side().Computers())); hits != systems {
		t.Fatalf("the ontology path ran %d times for %d systems; the readers did not share one build", hits, systems)
	}
	for i, a := range answers {
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !reflect.DeepEqual(a.resp.Results, want.Results) {
			t.Fatalf("reader %d diverges from a rebuild of the state it acquired\n got: %+v\nwant: %+v", i, a.resp.Results, want.Results)
		}
	}
}

// After one warm-up read, dirty reads of one state assemble no posting
// array: the engine encodes each pinned list block by block as it is
// emitted and keeps only the encoding (about three bytes a posting),
// so a read allocates that encoding and fewer bytes than one pinned
// list's array besides.
func TestDirtyReadRecyclesLists(t *testing.T) {
	fx := newFixture(t, 158, 3)
	cfg := core.DefaultConfig()
	sys, seg, _, _ := recycleState(t, fx, cfg)
	const kw = "medication"
	pinned := seg.Overlay(cfg.Strategy, -1, nil).Acquire().Pin(sys.Builder())
	list, err := pinned.BuildKeywordE(kw)
	if err != nil {
		t.Fatal(err)
	}
	array := int64(len(list)) * int64(unsafe.Sizeof(dil.Posting{}))
	encoded := int64(dil.Compact(list, pinned.IDs()).Bytes())
	req := core.SearchRequest{Query: kw, K: 10}
	ctx := context.Background()
	read := func() {
		if resp, err := sys.Query(ctx, req); err != nil || len(resp.Results) == 0 {
			t.Fatalf("query: %v", err)
		}
	}
	read()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
	t.Logf("%d postings (%d B, %d B encoded); %d B/op, %d allocs/op", len(list), array, encoded, res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got >= array+encoded {
		t.Fatalf("a dirty read allocates %d B, not under its list's encoding (%d B) plus one pinned list's array (%d B)", got, encoded, array)
	}
}
