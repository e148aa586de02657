package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dil"
	"repro/internal/xmltree"
)

// keyed keys a Dewey-ordered entry list by position, with its
// identifiers as the table: hand-built postings in the form a builder
// emits.
func keyed(es []dil.Entry) (dil.List, dil.IDs) {
	l := make(dil.List, len(es))
	ids := make([]xmltree.Dewey, len(es))
	for i, e := range es {
		l[i], ids[i] = dil.Posting{Key: int32(i), Doc: e.ID[0], Score: e.Score}, e.ID
	}
	return l, dil.IDs{Base: ids}
}

// sortEntries orders entries by Dewey identifier.
func sortEntries(es []dil.Entry) {
	slices.SortFunc(es, func(a, b dil.Entry) int { return a.ID.Compare(b.ID) })
}

// runLists merges Dewey-form lists through RunLists, each keyed by
// position.
func runLists(lists [][]dil.Entry, decay float64, k int) []Result {
	cls := make([]*dil.CompactList, len(lists))
	for i, l := range lists {
		cls[i] = compactOf(l)
	}
	return RunLists(cls, decay, k)
}

// compactOf is a Dewey-form list keyed by position and encoded.
func compactOf(l []dil.Entry) *dil.CompactList { return dil.Compact(keyed(l)) }

// runCompact merges encoded lists the way the engine does.
func runCompact(cls []*dil.CompactList, decay float64, k int) []Result {
	res := make([]resolved, len(cls))
	for i, c := range cls {
		res[i] = resolved{list: c}
	}
	out, _ := runFast(res, decay, k)
	return out
}

// oneElement is a fake builder's list: one posting, on element 0.1.
type oneElement struct{}

func (oneElement) list() *dil.CompactList {
	return dil.Compact(dil.List{{Key: 0, Score: 1}}, dil.IDs{Base: []xmltree.Dewey{{0, 1}}})
}

// Differential testing of the fast merge (merge.go) against the
// reference runDIL: identical roots, aggregate and per-keyword scores,
// and matches, on arbitrary list sets — deep and ragged Dewey trees,
// duplicate identifiers, ancestor/descendant postings, skewed sizes.

// genLists derives a k-list workload from a seeded generator. Sizes
// are skewed (list i is roughly 4x sparser than list i-1 when skew is
// set) so the zig-zag path is exercised, and identifiers collide often
// enough to produce duplicates and ancestor/descendant pairs.
func genLists(rng *rand.Rand, k, docs, maxDepth, baseSize int, skew bool) [][]dil.Entry {
	lists := make([][]dil.Entry, k)
	for i := range lists {
		size := baseSize
		if skew {
			for s := 0; s < i; s++ {
				size = size/4 + 1
			}
		}
		l := make([]dil.Entry, 0, size)
		for j := 0; j < size; j++ {
			depth := 1 + rng.Intn(maxDepth)
			id := make(xmltree.Dewey, depth)
			id[0] = int32(rng.Intn(docs))
			for d := 1; d < depth; d++ {
				id[d] = int32(rng.Intn(3))
			}
			l = append(l, dil.Entry{ID: id, Score: float64(1+rng.Intn(1000)) / 1000})
			if rng.Intn(10) == 0 { // duplicate identifier, distinct score
				l = append(l, dil.Entry{ID: id.Clone(), Score: float64(1+rng.Intn(1000)) / 1000})
			}
		}
		sortEntries(l)
		lists[i] = l
	}
	return lists
}

// matchEqual treats nil and empty identifiers the same (the reference
// clones posting IDs, the fast path copies through reused buffers).
func matchEqual(a, b Match) bool {
	if a.Score != b.Score {
		return false
	}
	if len(a.ID) == 0 && len(b.ID) == 0 {
		return true
	}
	return a.ID.Equal(b.ID)
}

func resultsEqual(t *testing.T, tag string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, reference has %d", tag, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Root.Equal(g.Root) {
			t.Fatalf("%s: result %d root = %v, want %v", tag, i, g.Root, w.Root)
		}
		if w.Score != g.Score {
			t.Fatalf("%s: result %d (%v) score = %v, want %v", tag, i, w.Root, g.Score, w.Score)
		}
		if len(w.PerKeyword) != len(g.PerKeyword) {
			t.Fatalf("%s: result %d per-keyword lengths differ", tag, i)
		}
		for j := range w.PerKeyword {
			if w.PerKeyword[j] != g.PerKeyword[j] {
				t.Fatalf("%s: result %d keyword %d score = %v, want %v",
					tag, i, j, g.PerKeyword[j], w.PerKeyword[j])
			}
		}
		if len(w.Matches) != len(g.Matches) {
			t.Fatalf("%s: result %d match counts differ", tag, i)
		}
		for j := range w.Matches {
			if !matchEqual(w.Matches[j], g.Matches[j]) {
				t.Fatalf("%s: result %d match %d = %+v, want %+v",
					tag, i, j, g.Matches[j], w.Matches[j])
			}
		}
	}
}

// checkEquivalence runs one workload through the reference merge and
// the fast merge, entered through RunLists and as the engine enters it,
// and requires identical output from all three. The reference emits in
// document order, as does the fast path, so no re-sorting is needed.
func checkEquivalence(t *testing.T, tag string, lists [][]dil.Entry, decay float64) {
	t.Helper()
	want := runDIL(lists, decay)
	got := runLists(lists, decay, 0)
	resultsEqual(t, tag+"/plain", want, got)
	cls := make([]*dil.CompactList, len(lists))
	for i, l := range lists {
		cls[i] = compactOf(l)
	}
	resultsEqual(t, tag+"/compact", want, runCompact(cls, decay, 0))
	// A second compact run through the pooled state must not be
	// perturbed by buffer reuse.
	resultsEqual(t, tag+"/compact-rerun", want, runCompact(cls, decay, 0))
}

// mergeDecays is the decay axis of the merge differentials. 0.5 is a
// power of two, where decaying once per level and decaying a chain of
// skipped levels cannot round differently; the others can. 0, 1, a
// negative decay and one above 1 are the clamping and unsafe edges.
var mergeDecays = []float64{0.5, 0.3, 0.7, 0.9, 0.123456789, 0, 1, -0.5, 1.5}

// checkDecayEquivalence holds the fast merge to the reference at one
// decay: the exhaustive merge (k = 0) and the top-k merge at k = 1, 10
// and 100, over plain and compact lists, with exact float equality.
func checkDecayEquivalence(t *testing.T, tag string, lists [][]dil.Entry, decay float64) {
	t.Helper()
	tag = fmt.Sprintf("%s/decay=%v", tag, decay)
	checkEquivalence(t, tag, lists, decay)
	for _, k := range []int{1, 10, 100} {
		checkTopKEquivalence(t, fmt.Sprintf("%s/k=%d", tag, k), lists, decay, k)
	}
}

func TestMergeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		docs := 1 + rng.Intn(40)
		maxDepth := 1 + rng.Intn(10) // deep, ragged trees
		baseSize := 1 + rng.Intn(600)
		skew := rng.Intn(2) == 0
		lists := genLists(rng, k, docs, maxDepth, baseSize, skew)
		tag := fmt.Sprintf("seed=%d/k=%d/docs=%d/depth=%d/n=%d/skew=%v",
			seed, k, docs, maxDepth, baseSize, skew)
		for _, decay := range mergeDecays {
			checkDecayEquivalence(t, tag, lists, decay)
		}
	}
}

// Hand-picked shapes that have historically been the sharp edges of
// stack merges: single lists, empty lists, ancestor/descendant and
// duplicate postings, one-document corpora, disjoint documents.
func TestMergeEquivalenceEdgeCases(t *testing.T) {
	d := func(s string) xmltree.Dewey {
		id, err := xmltree.ParseDewey(s)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	cases := map[string][][]dil.Entry{
		"single list":  {{{ID: d("0.1"), Score: 0.5}, {ID: d("1.2.3"), Score: 0.25}}},
		"empty second": {{{ID: d("0.1"), Score: 0.5}}, {}},
		"ancestor-descendant": {
			{{ID: d("0"), Score: 0.5}, {ID: d("0.1"), Score: 0.3}, {ID: d("0.1.2"), Score: 0.2}},
			{{ID: d("0.1"), Score: 0.9}, {ID: d("0.2"), Score: 0.1}},
		},
		"duplicates": {
			{{ID: d("0.1"), Score: 0.2}, {ID: d("0.1"), Score: 0.8}, {ID: d("0.1"), Score: 0.4}},
			{{ID: d("0.1"), Score: 0.5}, {ID: d("0.1.0"), Score: 0.5}},
		},
		"disjoint docs": {
			{{ID: d("0.1"), Score: 0.5}, {ID: d("2.1"), Score: 0.5}},
			{{ID: d("1.1"), Score: 0.5}, {ID: d("3.1"), Score: 0.5}},
		},
		"shared doc at end": {
			{{ID: d("0.1"), Score: 0.5}, {ID: d("5.1.1"), Score: 0.7}},
			{{ID: d("3.2"), Score: 0.4}, {ID: d("5.1.2"), Score: 0.6}},
			{{ID: d("5.1"), Score: 0.3}},
		},
		"identical lists": {
			{{ID: d("0.1"), Score: 0.5}, {ID: d("0.2"), Score: 0.25}},
			{{ID: d("0.1"), Score: 0.5}, {ID: d("0.2"), Score: 0.25}},
		},
	}
	for name, lists := range cases {
		checkEquivalence(t, name, lists, 0.5)
	}
}

// FuzzMergeEquivalence drives the differential property from fuzzed
// generator parameters, decay included (an index into mergeDecays);
// the seed corpus doubles as the bench-smoke regression suite (run via
// -run without -fuzz).
func FuzzMergeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10), uint8(4), uint16(200), true, uint8(0))
	f.Add(int64(2), uint8(5), uint8(3), uint8(10), uint16(500), false, uint8(1))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint16(1), false, uint8(5))
	f.Add(int64(4), uint8(3), uint8(50), uint8(8), uint16(64), true, uint8(2))
	f.Add(int64(5), uint8(4), uint8(2), uint8(6), uint16(900), true, uint8(4))
	// Ragged trees of depth 12 over few documents: long single-child
	// chains between postings, at every decay of the axis.
	for d := range mergeDecays {
		f.Add(int64(6+d), uint8(2), uint8(3), uint8(11), uint16(400), d%2 == 0, uint8(d))
	}
	f.Fuzz(func(t *testing.T, seed int64, k, docs, maxDepth uint8, baseSize uint16, skew bool, decay uint8) {
		kk := 1 + int(k)%6
		dd := 1 + int(docs)%64
		md := 1 + int(maxDepth)%12
		n := 1 + int(baseSize)%1200
		rng := rand.New(rand.NewSource(seed))
		lists := genLists(rng, kk, dd, md, n, skew)
		checkDecayEquivalence(t, "fuzz", lists, mergeDecays[int(decay)%len(mergeDecays)])
	})
}

// The merge counters must move when the fast path merges and skips:
// one rare keyword against a long common list over mostly-disjoint
// documents should bypass whole blocks of the common list.
func TestMergeCountersAndSkipping(t *testing.T) {
	common := make([]dil.Entry, 0, 40*dil.BlockSize)
	for doc := int32(0); doc < 4000; doc++ {
		common = append(common,
			dil.Entry{ID: xmltree.Dewey{doc, 0, 1}, Score: 0.5},
			dil.Entry{ID: xmltree.Dewey{doc, 1, 0}, Score: 0.25})
	}
	rare := []dil.Entry{
		{ID: xmltree.Dewey{100, 0}, Score: 1},
		{ID: xmltree.Dewey{3900, 2}, Score: 1},
	}
	lists := [][]dil.Entry{rare, common}
	before := MergeCountersSnapshot()
	cls := []*dil.CompactList{compactOf(rare), compactOf(common)}
	got := runCompact(cls, 0.5, 0)
	after := MergeCountersSnapshot()
	resultsEqual(t, "skewed", runDIL(lists, 0.5), got)
	merged := after.Postings - before.Postings
	if merged <= 0 || merged >= int64(len(common)) {
		t.Errorf("fast merge consumed %d postings; want >0 and well below %d", merged, len(common))
	}
	if skipped := after.BlocksSkipped - before.BlocksSkipped; skipped == 0 {
		t.Error("no blocks skipped on a 2-document rare list against a 4000-document common list")
	}
}
