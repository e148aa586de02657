package query

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// rankViaDIL is the exhaustive reference: full merge, sort, truncate.
func rankViaDIL(lists [][]dil.Entry, decay float64, k int) []Result {
	results := runDIL(lists, decay)
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Root.Compare(results[j].Root) < 0
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

func assertSameResults(t *testing.T, want, got []Result) {
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
	lists := [][]dil.Entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("0.1.2.3"), Score: 0.4}, {ID: d("1.0"), Score: 0.9}},
		{{ID: d("0.0.1"), Score: 0.7}, {ID: d("0.1.2.4"), Score: 1}, {ID: d("1.1"), Score: 0.5}},
	}
	for _, l := range lists {
		sortEntries(l)
	}
	for _, k := range []int{1, 2, 3, 10} {
		want := rankViaDIL(lists, 0.5, k)
		got := RunRanked(lists, 0.5, k)
		assertSameResults(t, want, got)
	}
}

func TestRunRankedDegenerate(t *testing.T) {
	if got := RunRanked(nil, 0.5, 5); got != nil {
		t.Error("nil lists answered")
	}
	lists := [][]dil.Entry{{{ID: d("0.0"), Score: 1}}, {}}
	if got := RunRanked(lists, 0.5, 5); got != nil {
		t.Error("empty list answered")
	}
	one := [][]dil.Entry{{{ID: d("0.0"), Score: 1}}}
	if got := RunRanked(one, 0.5, 0); got != nil {
		t.Error("k=0 answered")
	}
	got := RunRanked(one, 0.5, 3)
	if len(got) != 1 || got[0].Root.String() != "0.0" {
		t.Errorf("single-keyword result = %+v", got)
	}
}

// Property: RunRanked returns exactly the reference top-k on random
// posting sets (decay 0.5 so both float paths are exact).
func TestQuickRankedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 2 + r.Intn(2)
		lists := make([][]dil.Entry, nk)
		for kwi := range lists {
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
				lists[kwi] = append(lists[kwi], dil.Entry{ID: id, Score: score})
			}
			if len(lists[kwi]) == 0 {
				return true // degenerate draw; skip
			}
			sortEntries(lists[kwi])
		}
		k := 1 + r.Intn(5)
		want := rankViaDIL(lists, 0.5, k)
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
	lists := [][]dil.Entry{
		b.IDs().Entries(b.BuildKeyword("cardiac")),
		b.IDs().Entries(b.BuildKeyword("arrest")),
	}
	for _, l := range lists {
		if len(l) == 0 {
			t.Fatal("empty keyword list")
		}
	}
	want := rankViaDIL(lists, 0.5, 1)
	got, stats := RunRankedStats(lists, 0.5, 1)
	assertSameResults(t, want, got)
	if stats.PostingsConsumed >= stats.PostingsTotal {
		t.Errorf("no early termination: consumed %d of %d", stats.PostingsConsumed, stats.PostingsTotal)
	}
	t.Logf("top-1 consumed %d of %d postings (%d candidates, %d emitted)",
		stats.PostingsConsumed, stats.PostingsTotal, stats.Candidates, stats.Emitted)
	// Large k degrades gracefully to the full answer.
	wantAll := rankViaDIL(lists, 0.5, 1000)
	gotAll := RunRanked(lists, 0.5, 1000)
	assertSameResults(t, wantAll, gotAll)
}

func TestRankedMostSpecificExclusion(t *testing.T) {
	// Root covers both keywords but a child does too; only the child is
	// a result (matches TestRunDILExcludesNonSpecificAncestors).
	lists := [][]dil.Entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("0.1"), Score: 1}},
		{{ID: d("0.0.1"), Score: 1}},
	}
	for _, l := range lists {
		sortEntries(l)
	}
	got := RunRanked(lists, 0.5, 10)
	if len(got) != 1 || got[0].Root.String() != "0.0" {
		t.Fatalf("results = %+v", got)
	}
}

func TestEngineSearchRankedMatchesSearch(t *testing.T) {
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyRelationships, dil.DefaultParams())
	e := NewEngine(dil.NewIndex(), b, DefaultParams())
	ranked := func(kws []Keyword, k int) []Result {
		res, _ := searchReq(context.Background(), e, Request{Keywords: kws, K: k, Ranked: true})
		return res
	}
	for _, q := range []string{"asthma medications", `"bronchial structure" theophylline`, "theophylline"} {
		kws := ParseQuery(q)
		for _, k := range []int{1, 3, 10} {
			want := search(e, kws, k)
			got := ranked(kws, k)
			if len(want) != len(got) {
				t.Fatalf("q=%q k=%d: %d vs %d results", q, k, len(want), len(got))
			}
			for i := range want {
				if !want[i].Root.Equal(got[i].Root) || math.Abs(want[i].Score-got[i].Score) > 1e-12 {
					t.Errorf("q=%q k=%d result %d differs", q, k, i)
				}
			}
		}
	}
	if got := ranked(nil, 5); got != nil {
		t.Error("empty ranked query answered")
	}
	if got := ranked(ParseQuery("zzznothing"), 5); got != nil {
		t.Error("unknown keyword ranked query answered")
	}
	// Default k path.
	if got := ranked(ParseQuery("asthma"), 0); len(got) > DefaultParams().K {
		t.Error("default k exceeded")
	}
}

func TestRunRankedFlatScoresMatchReference(t *testing.T) {
	// Flat scores defeat ranked termination; the ranked merge must then
	// drain the lists and still return the exact answer.
	var lists [][]dil.Entry
	for kw := 0; kw < 2; kw++ {
		var l []dil.Entry
		for i := 0; i < 40; i++ {
			l = append(l, dil.Entry{
				ID:    xmltree.Dewey{int32(i), int32(kw)},
				Score: 0.5, // all tied: no early termination possible
			})
		}
		sortEntries(l)
		lists = append(lists, l)
	}
	for _, k := range []int{1, 5, 100} {
		want := rankViaDIL(lists, 0.5, k)
		got, stats := RunRankedStats(lists, 0.5, k)
		assertSameResults(t, want, got)
		if k < 40 && stats.PostingsConsumed < stats.PostingsTotal-1 {
			t.Errorf("k=%d: flat scores terminated early after %d of %d postings",
				k, stats.PostingsConsumed, stats.PostingsTotal)
		}
	}
	// Skewed scores: the ranked path terminates early and still matches.
	skewed := [][]dil.Entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("1.0"), Score: 0.1}, {ID: d("2.0"), Score: 0.05}},
		{{ID: d("0.0.1"), Score: 0.9}, {ID: d("1.1"), Score: 0.1}, {ID: d("2.1"), Score: 0.05}},
	}
	for _, l := range skewed {
		sortEntries(l)
	}
	assertSameResults(t, rankViaDIL(skewed, 0.5, 1), RunRanked(skewed, 0.5, 1))
}
