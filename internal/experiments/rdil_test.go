package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// RDIL is held to the serving merge: query.RunLists at the same k is
// the reference top-k (the merge itself is held to the reference
// Dewey-order merge in internal/query).

func d(s string) xmltree.Dewey {
	id, err := xmltree.ParseDewey(s)
	if err != nil {
		panic(err)
	}
	return id
}

// keyLists keys Dewey-form lists into one shared table holding every
// listed element and all its ancestors, in Dewey order, and encodes
// them: hand-built lists in the form a stage's builder emits.
func keyLists(lists [][]entry) []*dil.CompactList {
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
	table := dil.IDs{Base: dil.NewKeys(slices.Clone(ids))}
	out := make([]*dil.CompactList, len(lists))
	for i, l := range lists {
		kl := make(dil.List, len(l))
		for j, e := range l {
			key, _ := slices.BinarySearchFunc(ids, e.ID, xmltree.Dewey.Compare)
			kl[j] = dil.Posting{Key: int32(key), Doc: e.ID[0], Score: e.Score}
		}
		slices.SortFunc(kl, func(a, b dil.Posting) int { return int(a.Key - b.Key) })
		out[i] = dil.Compact(kl, table)
	}
	return out
}

func assertSameResults(t *testing.T, want, got []query.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Root.Equal(got[i].Root) {
			t.Fatalf("result %d root: %v vs %v", i, want[i].Root, got[i].Root)
		}
		if math.Abs(want[i].Score-got[i].Score) > 1e-12 {
			t.Fatalf("result %d score: %f vs %f", i, want[i].Score, got[i].Score)
		}
		for j := range want[i].PerKeyword {
			if math.Abs(want[i].PerKeyword[j]-got[i].PerKeyword[j]) > 1e-12 {
				t.Fatalf("result %d keyword %d: %f vs %f",
					i, j, want[i].PerKeyword[j], got[i].PerKeyword[j])
			}
		}
	}
}

func TestRunRankedMatchesDILHandBuilt(t *testing.T) {
	lists := keyLists([][]entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("0.1.2.3"), Score: 0.4}, {ID: d("1.0"), Score: 0.9}},
		{{ID: d("0.0.1"), Score: 0.7}, {ID: d("0.1.2.4"), Score: 1}, {ID: d("1.1"), Score: 0.5}},
	})
	for _, k := range []int{1, 2, 3, 10} {
		assertSameResults(t, query.RunLists(lists, 0.5, k), RunRanked(lists, 0.5, k))
	}
}

func TestRunRankedDegenerate(t *testing.T) {
	if got := RunRanked(nil, 0.5, 5); got != nil {
		t.Error("nil lists answered")
	}
	one := keyLists([][]entry{{{ID: d("0.0"), Score: 1}}})
	if got := RunRanked([]*dil.CompactList{one[0], nil}, 0.5, 5); got != nil {
		t.Error("empty list answered")
	}
	if got := RunRanked(one, 0.5, 0); got != nil {
		t.Error("k=0 answered")
	}
	got := RunRanked(one, 0.5, 3)
	if len(got) != 1 || got[0].Root.String() != "0.0" {
		t.Errorf("single-keyword result = %+v", got)
	}
}

// Property: RunRanked returns exactly the merge's top-k on random
// posting sets (decay 0.5 so both float paths are exact).
func TestQuickRankedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 2 + r.Intn(2)
		dewey := make([][]entry, nk)
		for kwi := range dewey {
			seen := map[string]bool{}
			for i := 0; i < 1+r.Intn(10); i++ {
				depth := r.Intn(5)
				id := make(xmltree.Dewey, depth+1)
				id[0] = int32(r.Intn(3))
				for j := 1; j <= depth; j++ {
					id[j] = int32(r.Intn(3))
				}
				if seen[id.String()] {
					continue
				}
				seen[id.String()] = true
				// Quantized scores produce frequent exact ties,
				// stressing the tie-break equivalence.
				score := float64(1+r.Intn(8)) / 8
				dewey[kwi] = append(dewey[kwi], entry{ID: id, Score: score})
			}
			if len(dewey[kwi]) == 0 {
				return true // degenerate draw; skip
			}
		}
		lists := keyLists(dewey)
		k := 1 + r.Intn(5)
		want := query.RunLists(lists, 0.5, k)
		got := RunRanked(lists, 0.5, k)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if !want[i].Root.Equal(got[i].Root) || math.Abs(want[i].Score-got[i].Score) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// On a real corpus, RunRanked terminates early: top-1 consumes a small
// fraction of the postings.
func TestRankedEarlyTermination(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 33, ExtraConcepts: 150, SynonymProb: 0.3,
		MultiParentProb: 0.1, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 33, NumDocuments: 40, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyGraph, dil.DefaultParams())
	lists := []*dil.CompactList{
		dil.Compact(b.BuildKeyword("cardiac"), b.IDs()),
		dil.Compact(b.BuildKeyword("arrest"), b.IDs()),
	}
	for _, l := range lists {
		if l.Len() == 0 {
			t.Fatal("empty keyword list")
		}
	}
	got, stats := RunRankedStats(lists, 0.5, 1)
	assertSameResults(t, query.RunLists(lists, 0.5, 1), got)
	if stats.PostingsConsumed >= stats.PostingsTotal {
		t.Errorf("no early termination: consumed %d of %d", stats.PostingsConsumed, stats.PostingsTotal)
	}
	t.Logf("top-1 consumed %d of %d postings (%d candidates, %d emitted)",
		stats.PostingsConsumed, stats.PostingsTotal, stats.Candidates, stats.Emitted)
	// Large k degrades gracefully to the full answer.
	assertSameResults(t, query.RunLists(lists, 0.5, 1000), RunRanked(lists, 0.5, 1000))
}

func TestRankedMostSpecificExclusion(t *testing.T) {
	// Root covers both keywords but a child does too; only the child is
	// a result.
	lists := keyLists([][]entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("0.1"), Score: 1}},
		{{ID: d("0.0.1"), Score: 1}},
	})
	got := RunRanked(lists, 0.5, 10)
	if len(got) != 1 || got[0].Root.String() != "0.0" {
		t.Fatalf("results = %+v", got)
	}
}

func TestRunRankedFlatScoresMatchReference(t *testing.T) {
	// Flat scores defeat ranked termination; the ranked merge must then
	// drain the lists and still return the exact answer.
	var dewey [][]entry
	for kw := 0; kw < 2; kw++ {
		var l []entry
		for i := 0; i < 40; i++ {
			l = append(l, entry{
				ID:    xmltree.Dewey{int32(i), int32(kw)},
				Score: 0.5, // all tied: no early termination possible
			})
		}
		dewey = append(dewey, l)
	}
	lists := keyLists(dewey)
	for _, k := range []int{1, 5, 100} {
		got, stats := RunRankedStats(lists, 0.5, k)
		assertSameResults(t, query.RunLists(lists, 0.5, k), got)
		if k < 40 && stats.PostingsConsumed < stats.PostingsTotal-1 {
			t.Errorf("k=%d: flat scores terminated early after %d of %d postings",
				k, stats.PostingsConsumed, stats.PostingsTotal)
		}
	}
	// Skewed scores: the ranked path terminates early and still matches.
	skewed := keyLists([][]entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("1.0"), Score: 0.1}, {ID: d("2.0"), Score: 0.05}},
		{{ID: d("0.0.1"), Score: 0.9}, {ID: d("1.1"), Score: 0.1}, {ID: d("2.1"), Score: 0.05}},
	})
	assertSameResults(t, query.RunLists(skewed, 0.5, 1), RunRanked(skewed, 0.5, 1))
}

// The ranked window is not sized to k: a query at the deepest page
// the engine allows that retains one result stays small.
func TestRunRankedNotWindowSized(t *testing.T) {
	lists := keyLists([][]entry{
		{{ID: xmltree.Dewey{0, 1}, Score: 0.5}},
		{{ID: xmltree.Dewey{0, 2}, Score: 0.25}},
	})
	const limit = query.MaxK + query.MaxOffset
	if n := len(RunRanked(lists, 0.5, limit)); n != 1 {
		t.Fatalf("%d results, want 1", n)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunRanked(lists, 0.5, limit)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Errorf("at limit %d: %d B/op, want < 64 KiB", limit, got)
	}
}
