package delta

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/ir"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// gatedOverlay serves a segment's views to a system with each pinned
// build's state wrapped: the first build to read its statistics or ask
// about a dead document closes entered and blocks until release is
// closed (any other build doing so meanwhile waits too), and builds
// counts the pinned builds that got that far — a reader that joined
// another's build counts a pin but no build.
type gatedOverlay struct {
	seg      *Segment
	strategy ontoscore.Strategy
	entered  chan struct{}
	release  chan struct{}
	first    sync.Once
	pins     atomic.Int64
	builds   atomic.Int64
}

// gate installs a gatedOverlay over seg on sys, in place of the one
// wireSegment installed.
func gate(sys *core.System, seg *Segment, strategy ontoscore.Strategy) *gatedOverlay {
	o := &gatedOverlay{seg: seg, strategy: strategy, entered: make(chan struct{}), release: make(chan struct{})}
	sys.SetOverlay(o)
	return o
}

func (o *gatedOverlay) Acquire() query.OverlayView {
	return gatedView{o.seg.Overlay(o.strategy, -1, nil).Acquire().(*segView), o}
}

type gatedView struct {
	*segView
	o *gatedOverlay
}

// Pin pins base to the view's state, as segView.Pin does, with every
// statistics read and dead-document test passing the build's gate
// first. A build with any posting asks about a document (tombstones or
// none), so every build that emits one reaches its gate.
func (v gatedView) Pin(base *dil.Builder) *dil.Builder {
	v.o.pins.Add(1)
	g := &buildGate{o: v.o}
	live := v.live()
	dead := live.Dead
	live.Dead = func(id int32) bool {
		g.enter()
		return dead != nil && dead(id)
	}
	live.Stats = gatedStats{live.Stats, g}
	return base.Pin(live)
}

// buildGate is one pinned build's pass through the overlay's gate.
type buildGate struct {
	o    *gatedOverlay
	once sync.Once
}

func (g *buildGate) enter() {
	g.once.Do(func() {
		g.o.builds.Add(1)
		g.o.first.Do(func() {
			close(g.o.entered)
			<-g.o.release
		})
	})
}

type gatedStats struct {
	ir.StatsView
	g *buildGate
}

func (s gatedStats) StatsN() int             { s.g.enter(); return s.StatsView.StatsN() }
func (s gatedStats) StatsTotalLen() int64    { s.g.enter(); return s.StatsView.StatsTotalLen() }
func (s gatedStats) StatsDF(term string) int { s.g.enter(); return s.StatsView.StatsDF(term) }

// A dirty read answers for the state it acquired. The first keyword
// build of a query blocks part way through (gatedOverlay); meanwhile a write tombstones a base document. The answer must still
// be the acquired state's — statistics, normalization divisors and
// tombstones alike — not a list scored under the new state and merged
// with the old delta.
func TestDirtyReadPinnedToAcquiredState(t *testing.T) {
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
	o := gate(sys, seg, cfg.Strategy)
	type answer struct {
		resp *core.SearchResponse
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := sys.Query(context.Background(), req)
		done <- answer{resp, err}
	}()
	<-o.entered
	if err := seg.Apply(Op{Seq: 4, Kind: OpDelete, Name: fx.names[3]}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("the query finished before the write landed; the test did not overlap them")
	default:
	}
	close(o.release)
	got := <-done
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
			list := b.BuildKeyword(kw)
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
// first blocks inside its build, the second acquires the same state and
// joins the build. Both answer for the acquired state from the one
// encoded list the build returned.
func TestDirtyReadCoalescedReaders(t *testing.T) {
	fx := newFixture(t, 158, 3)
	cfg := core.DefaultConfig()
	sys, seg, script, base := recycleState(t, fx, cfg)
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
	o := gate(sys, seg, cfg.Strategy)
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
	<-o.entered
	go read()
	for o.pins.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	// The second reader pinned the state; give it time to reach the
	// first reader's flight before the build is let go.
	time.Sleep(200 * time.Millisecond)
	close(o.release)
	answers := []answer{<-done, <-done}
	if builds := o.builds.Load(); builds != 1 {
		t.Fatalf("%d pinned builds ran for two readers of one state; the readers did not share one build", builds)
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
	list := pinned.BuildKeyword(kw)
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
