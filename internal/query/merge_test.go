package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// compactAll keys Dewey-ordered lists into one shared table holding
// every listed element and all its ancestors, in Dewey order, and
// encodes them: hand-built lists in the form a stage's builder emits,
// all indexing one table as the lists of one merge do. A list must not
// repeat an element.
func compactAll(lists [][]entry) []*dil.CompactList {
	var ids []xmltree.Dewey
	for _, l := range lists {
		for _, e := range l {
			for n := 1; n <= len(e.ID); n++ {
				ids = append(ids, e.ID[:n])
			}
		}
	}
	slices.SortFunc(ids, xmltree.Dewey.Compare)
	ids = slices.CompactFunc(ids, xmltree.Dewey.Equal)
	table := dil.IDs{Base: dil.NewKeys(ids)}
	out := make([]*dil.CompactList, len(lists))
	for i, l := range lists {
		kl := make(dil.List, len(l))
		for j, e := range l {
			key, _ := slices.BinarySearchFunc(ids, e.ID, xmltree.Dewey.Compare)
			kl[j] = dil.Posting{Key: int32(key), Doc: e.ID[0], Score: e.Score}
			if j > 0 && kl[j].Key <= kl[j-1].Key {
				panic(fmt.Sprintf("compactAll: list %d repeats or disorders %v", i, e.ID))
			}
		}
		out[i] = dil.Compact(kl, table)
	}
	return out
}

// sortEntries orders entries by Dewey identifier.
func sortEntries(es []entry) {
	slices.SortFunc(es, func(a, b entry) int { return a.ID.Compare(b.ID) })
}

// runLists merges Dewey-form lists through RunLists.
func runLists(lists [][]entry, decay float64, k int) []Result {
	return RunLists(compactAll(lists), decay, k)
}

// runCompact merges encoded lists the way the engine does.
func runCompact(cls []*dil.CompactList, decay float64, k int) []Result {
	res := make([]resolved, len(cls))
	for i, c := range cls {
		res[i] = resolved{list: c}
	}
	out, _ := runFast(res, decay, k, 0, true)
	return out
}

// oneElement is a fake builder's list: one posting, on element 0.1.
type oneElement struct{}

func (oneElement) list() *dil.CompactList { return oneElementList }

// oneElementList is every fake list: one table for all the keywords a
// query merges.
var oneElementList = dil.Compact(dil.List{{Key: 1, Score: 1}}, dil.IDs{Base: dil.NewKeys([]xmltree.Dewey{{0}, {0, 1}})})

// Differential testing of the fast merge (merge.go) against the
// reference runDIL: identical roots, aggregate and per-keyword scores,
// and matches, on arbitrary list sets — deep and ragged Dewey trees,
// duplicate identifiers, ancestor/descendant postings, skewed sizes.

// genLists derives a k-list workload from a seeded generator. Sizes
// are skewed (list i is roughly 4x sparser than list i-1 when skew is
// set) so the zig-zag path is exercised, and identifiers collide often
// enough to produce ancestor/descendant pairs and elements shared
// across lists. A list holds an element once, as a built list does.
func genLists(rng *rand.Rand, k, docs, maxDepth, baseSize int, skew bool) [][]entry {
	lists := make([][]entry, k)
	for i := range lists {
		size := baseSize
		if skew {
			for s := 0; s < i; s++ {
				size = size/4 + 1
			}
		}
		l := make([]entry, 0, size)
		for j := 0; j < size; j++ {
			depth := 1 + rng.Intn(maxDepth)
			id := make(xmltree.Dewey, depth)
			id[0] = int32(rng.Intn(docs))
			for d := 1; d < depth; d++ {
				id[d] = int32(rng.Intn(3))
			}
			l = append(l, entry{ID: id, Score: float64(1+rng.Intn(1000)) / 1000})
		}
		sortEntries(l)
		lists[i] = slices.CompactFunc(l, func(a, b entry) bool { return a.ID.Equal(b.ID) })
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
func checkEquivalence(t *testing.T, tag string, lists [][]entry, decay float64) {
	t.Helper()
	want := runDIL(lists, decay)
	got := runLists(lists, decay, 0)
	resultsEqual(t, tag+"/plain", want, got)
	cls := compactAll(lists)
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
func checkDecayEquivalence(t *testing.T, tag string, lists [][]entry, decay float64) {
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
	cases := map[string][][]entry{
		"single list":  {{{ID: d("0.1"), Score: 0.5}, {ID: d("1.2.3"), Score: 0.25}}},
		"empty second": {{{ID: d("0.1"), Score: 0.5}}, {}},
		"ancestor-descendant": {
			{{ID: d("0"), Score: 0.5}, {ID: d("0.1"), Score: 0.3}, {ID: d("0.1.2"), Score: 0.2}},
			{{ID: d("0.1"), Score: 0.9}, {ID: d("0.2"), Score: 0.1}},
		},
		"shared elements": {
			{{ID: d("0.1"), Score: 0.2}, {ID: d("0.1.0"), Score: 0.8}, {ID: d("0.1.1"), Score: 0.4}},
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
	common := make([]entry, 0, 40*dil.BlockSize)
	for doc := int32(0); doc < 4000; doc++ {
		common = append(common,
			entry{ID: xmltree.Dewey{doc, 0, 1}, Score: 0.5},
			entry{ID: xmltree.Dewey{doc, 1, 0}, Score: 0.25})
	}
	rare := []entry{
		{ID: xmltree.Dewey{100, 0}, Score: 1},
		{ID: xmltree.Dewey{3900, 2}, Score: 1},
	}
	lists := [][]entry{rare, common}
	before := MergeCountersSnapshot()
	cls := compactAll(lists)
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

// A dirty read merges lists pinned to one live state: base postings
// keyed by the base stage, delta postings numbered after them in the
// delta stage's table. The merge must resolve each document through
// its own stage — results inside delta documents included — and agree
// with the reference merge over the same lists in Dewey form.
func TestMergePinnedBaseDelta(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 4, ExtraConcepts: 150, SynonymProb: 0.3,
		MultiParentProb: 0.1, RelationshipsPerDisorder: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 4, NumDocuments: 30, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1}, ont)
	if err != nil {
		t.Fatal(err)
	}
	const firstDelta = 20
	base, delta := xmltree.NewCorpus(), xmltree.NewCorpus()
	for _, doc := range g.GenerateCorpus().Docs() {
		if doc.ID < firstDelta {
			base.AddExisting(doc)
		} else {
			delta.AddExisting(doc)
		}
	}
	side := ontoscore.NewSide(ontology.MustCollection(ont), ontoscore.DefaultParams())
	st := []ontoscore.Strategy{ontoscore.StrategyGraph}
	b := dil.NewBuilders(base, side, st, dil.DefaultParams())[st[0]]
	d := dil.NewBuilders(delta, side, st, dil.DefaultParams())[st[0]]
	pinned := b.Pin(dil.Live{Stats: b.LocalTextStats(), Delta: d})
	inDelta := 0
	for _, q := range [][]string{{"asthma", "medications"}, {"cardiac", "arrest"}, {"patient", "problem"}} {
		lists, cls := make([][]entry, len(q)), make([]*dil.CompactList, len(q))
		for i, kw := range q {
			lists[i] = entriesOf(pinned.IDs(), pinned.BuildKeyword(kw))
			cls[i] = pinned.CompactKeyword(context.Background(), kw)
		}
		want := runDIL(lists, 0.5)
		got := RunLists(cls, 0.5, 0)
		resultsEqual(t, fmt.Sprint(q), want, got)
		for _, r := range got {
			if r.Root[0] >= firstDelta {
				inDelta++
			}
		}
		resultsEqual(t, fmt.Sprint(q, "/top-3"), rankTruncate(want, 3), RunLists(cls, 0.5, 3))
	}
	if inDelta == 0 {
		t.Fatal("no result lies in a delta document")
	}
}
