package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dil"
	"repro/internal/xmltree"
)

// Differential testing of the block-max top-k merge against the
// exhaustive reference: for every k the pruned merge must return
// byte-identically what sorting and truncating the full exhaustive
// result set returns — same roots, same scores, same matches, same
// order — over plain and compact lists, with and without score skew.

// topKReference is the trusted answer: the reference merge's full
// result set, ranked and truncated (rankTruncate is also what the
// exhaustive escape hatch runs, so this pins every implementation to
// one definition of "the top k").
func topKReference(lists [][]entry, decay float64, k int) []Result {
	return rankTruncate(runDIL(lists, decay), k)
}

// genScoredLists is genLists with a controllable per-doc score scale:
// heavyTail gives documents wildly different magnitudes (BM25-ish), the
// shape that makes block-max bounds selective. Uniform scores leave
// every block's max near the distribution max, so pruning barely fires
// — both shapes must stay exact.
func genScoredLists(rng *rand.Rand, k, docs, maxDepth, baseSize int, skew, heavyTail bool) [][]entry {
	lists := genLists(rng, k, docs, maxDepth, baseSize, skew)
	if !heavyTail {
		return lists
	}
	scale := make([]float64, docs)
	for d := range scale {
		scale[d] = 1.0
		for h := 0; h < rng.Intn(6); h++ {
			scale[d] /= 3
		}
	}
	for _, l := range lists {
		for i := range l {
			l[i].Score *= scale[l[i].ID[0]]
		}
	}
	return lists
}

// checkTopKEquivalence requires the pruned merge to match the
// exhaustive reference for one (lists, k) pair, entered through
// RunLists and as the engine enters it.
func checkTopKEquivalence(t *testing.T, tag string, lists [][]entry, decay float64, k int) {
	t.Helper()
	want := topKReference(lists, decay, k)
	resultsEqual(t, tag+"/plain", want, runLists(lists, decay, k))
	cls := compactAll(lists)
	resultsEqual(t, tag+"/compact", want, runCompact(cls, decay, k))
	// Re-run through the pooled merge state: the top-k heap must not
	// leak between runs.
	resultsEqual(t, tag+"/compact-rerun", want, runCompact(cls, decay, k))
}

func TestTopKEquivalence(t *testing.T) {
	ks := []int{1, 2, 3, 5, 10, 100, 100000}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nkw := 1 + rng.Intn(4)
		docs := 1 + rng.Intn(50)
		maxDepth := 1 + rng.Intn(8)
		baseSize := 1 + rng.Intn(500)
		skew := rng.Intn(2) == 0
		heavy := rng.Intn(2) == 0
		lists := genScoredLists(rng, nkw, docs, maxDepth, baseSize, skew, heavy)
		for _, k := range ks {
			tag := fmt.Sprintf("seed=%d/kw=%d/docs=%d/n=%d/skew=%v/heavy=%v/k=%d",
				seed, nkw, docs, baseSize, skew, heavy, k)
			checkTopKEquivalence(t, tag, lists, 0.5, k)
		}
	}
}

// The sharp edges of threshold pruning: k = 1 (tightest threshold),
// k at or beyond the result count (the heap never fills, nothing may
// prune), all-equal scores (every candidate ties the threshold — the
// Dewey tie-break decides survival), and duplicate document IDs across
// postings.
func TestTopKEdgeCases(t *testing.T) {
	d := func(s string) xmltree.Dewey {
		id, err := xmltree.ParseDewey(s)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	cases := map[string][][]entry{
		"all-equal scores": {
			{{ID: d("0.1"), Score: 0.5}, {ID: d("1.1"), Score: 0.5}, {ID: d("2.1"), Score: 0.5}},
			{{ID: d("0.2"), Score: 0.5}, {ID: d("1.2"), Score: 0.5}, {ID: d("2.2"), Score: 0.5}},
		},
		"duplicate doc ids": {
			{{ID: d("0.1"), Score: 0.9}, {ID: d("0.1.0"), Score: 0.4}, {ID: d("0.2"), Score: 0.3}},
			{{ID: d("0.1.1"), Score: 0.8}, {ID: d("0.2"), Score: 0.7}, {ID: d("0.2.0"), Score: 0.2}},
		},
		"single posting":   {{{ID: d("3.1"), Score: 0.25}}},
		"descending docs":  {{{ID: d("0.1"), Score: 1}, {ID: d("1.1"), Score: 0.5}, {ID: d("2.1"), Score: 0.25}}},
		"ascending scores": {{{ID: d("0.1"), Score: 0.25}, {ID: d("1.1"), Score: 0.5}, {ID: d("2.1"), Score: 1}}},
	}
	for name, lists := range cases {
		for _, k := range []int{1, 2, 3, 100} {
			checkTopKEquivalence(t, fmt.Sprintf("%s/k=%d", name, k), lists, 0.5, k)
		}
	}
}

// A decay outside [0,1] voids the propagation bound (an ancestor can
// out-score every posting below it); the merge must detect that and
// still answer the exact top-k by exhausting the lists.
func TestTopKUnsafeDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lists := genScoredLists(rng, 3, 20, 6, 300, true, true)
	for _, decay := range []float64{1.5, 2.0, -0.5} {
		for _, k := range []int{1, 5} {
			checkTopKEquivalence(t, fmt.Sprintf("decay=%v/k=%v", decay, k), lists, decay, k)
		}
	}
}

// FuzzTopKEquivalence drives the top-k differential from fuzzed
// (seed, k, offset, skew, decay) tuples — decay indexes mergeDecays;
// offset is exercised through the engine-style
// page(run(k+offset))[offset:] composition.
func FuzzTopKEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(4), true, true, uint8(0))
	f.Add(int64(2), uint8(10), uint8(3), uint8(2), false, true, uint8(0))
	f.Add(int64(3), uint8(100), uint8(50), uint8(1), true, false, uint8(0))
	f.Add(int64(4), uint8(3), uint8(1), uint8(5), false, false, uint8(0))
	for d := 1; d < len(mergeDecays); d++ {
		f.Add(int64(10+d), uint8(10*d), uint8(d), uint8(d), d%2 == 0, d%3 != 0, uint8(d))
	}
	f.Fuzz(func(t *testing.T, seed int64, k, offset, nkw uint8, skew, heavy bool, decay uint8) {
		kk := 1 + int(k)%128
		off := int(offset) % 64
		kws := 1 + int(nkw)%5
		dc := mergeDecays[int(decay)%len(mergeDecays)]
		rng := rand.New(rand.NewSource(seed))
		lists := genScoredLists(rng, kws, 1+rng.Intn(40), 1+rng.Intn(8), 1+rng.Intn(400), skew, heavy)
		want := page(topKReference(lists, dc, kk+off), off)
		tag := fmt.Sprintf("fuzz/page/decay=%v", dc)
		resultsEqual(t, tag+"/plain", want, page(runLists(lists, dc, kk+off), off))
		resultsEqual(t, tag+"/compact", want, page(runCompact(compactAll(lists), dc, kk+off), off))
	})
}

// The top-k heap must not be sized to the window: a query at the
// deepest page allowed (k+offset = MaxK+MaxOffset) that retains one
// result must not allocate the window's worth of heap slots.
func TestTopKHeapNotWindowSized(t *testing.T) {
	lists := [][]entry{
		{{ID: xmltree.Dewey{0, 1}, Score: 0.5}},
		{{ID: xmltree.Dewey{0, 2}, Score: 0.25}},
	}
	const limit = MaxK + MaxOffset
	cls := compactAll(lists)
	if n := len(RunLists(cls, 0.5, limit)); n != 1 {
		t.Fatalf("%d results, want 1", n)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunLists(cls, 0.5, limit)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Errorf("at limit %d: %d B/op, want < 64 KiB", limit, got)
	}
}

// The pruning counters must move on a workload built for them: one
// high-scoring early document against long tails of low scores, small
// k. Exactness is asserted alongside, so the skips are provably sound.
func TestTopKPruneCounters(t *testing.T) {
	const docs = 2000
	mk := func(kwScale float64) []entry {
		l := make([]entry, 0, docs)
		for doc := int32(0); doc < docs; doc++ {
			score := kwScale
			if doc > 0 {
				score = kwScale / float64(3+doc)
			}
			l = append(l, entry{ID: xmltree.Dewey{doc, 0}, Score: score})
		}
		return l
	}
	lists := [][]entry{mk(1.0), mk(0.8)}
	cls := compactAll(lists)

	before := MergeCountersSnapshot()
	got := runCompact(cls, 0.5, 1)
	after := MergeCountersSnapshot()
	resultsEqual(t, "counters/topk", topKReference(lists, 0.5, 1), got)
	if skipped := after.DocsSkipped - before.DocsSkipped; skipped == 0 {
		if terms := after.EarlyTerminations - before.EarlyTerminations; terms == 0 {
			t.Error("top-1 over a steeply falling score tail neither skipped documents nor terminated early")
		}
	}
	if scored := after.Postings - before.Postings; scored >= int64(2*docs) {
		t.Errorf("pruned merge scored %d postings, the exhaustive count", scored)
	}
}

// The escape hatches must bypass pruning and still agree: an engine
// with ExhaustiveMerge set answers byte-identically to the default
// pruned engine, and its merges report no pruning work.
func TestEngineExhaustiveMergeParam(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lists := genScoredLists(rng, 2, 30, 5, 400, true, true)
	ix := dil.NewIndex()
	cls := compactAll(lists)
	ix.Set("alpha", cls[0])
	ix.Set("beta", cls[1])

	pruned := NewEngine(ix, nil, DefaultParams())
	p := DefaultParams()
	p.ExhaustiveMerge = true
	exhaustive := NewEngine(ix, nil, p)

	kws := []Keyword{"alpha", "beta"}
	for _, k := range []int{1, 3, 10} {
		for _, offset := range []int{0, 2} {
			req := Request{Keywords: kws, K: k, Offset: offset}
			pr, err := pruned.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			er, err := exhaustive.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("k=%d/offset=%d", k, offset)
			resultsEqual(t, tag, er.Results, pr.Results)
			if len(pr.Results) > k {
				t.Errorf("%s: %d results, want <= %d", tag, len(pr.Results), k)
			}
			if er.Pruning.DocsSkipped != 0 || er.Pruning.EarlyTerminated {
				t.Errorf("%s: exhaustive engine reported pruning work: %+v", tag, er.Pruning)
			}
		}
	}
}

// Engine paging is exact: page p of size k must equal the [pk, pk+k)
// window of one deep query, for every page that exists.
func TestEnginePagingWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lists := genScoredLists(rng, 2, 25, 5, 300, false, true)
	ix := dil.NewIndex()
	cls := compactAll(lists)
	ix.Set("alpha", cls[0])
	ix.Set("beta", cls[1])
	e := NewEngine(ix, nil, DefaultParams())
	kws := []Keyword{"alpha", "beta"}

	full, err := e.Query(context.Background(), Request{Keywords: kws, K: MaxK})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < 4 {
		t.Skipf("only %d results; cannot page", len(full.Results))
	}
	const k = 2
	for offset := 0; offset < len(full.Results)+2; offset += k {
		resp, err := e.Query(context.Background(), Request{Keywords: kws, K: k, Offset: offset})
		if err != nil {
			t.Fatal(err)
		}
		want := full.Results[min(offset, len(full.Results)):min(offset+k, len(full.Results))]
		resultsEqual(t, fmt.Sprintf("offset=%d", offset), want, resp.Results)
	}
}
