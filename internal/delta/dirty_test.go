package delta

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/ontoscore"
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
		for _, kw := range sys.Builder().Vocabulary(0) {
			list, err := b.BuildKeywordE(kw)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(list); i++ {
				if list[i-1].ID.Compare(list[i].ID) >= 0 {
					t.Fatalf("%s %q: postings %v, %v out of Dewey order", label, kw, list[i-1].ID, list[i].ID)
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
