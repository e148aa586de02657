package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func buildSystem(t *testing.T, strategy ontoscore.Strategy) *System {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 6, ExtraConcepts: 100, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 6, NumDocuments: 10, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(fig1)
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	cfg.VocabularyHops = 1
	return New(corpus, ont, cfg)
}

func TestSearchOnDemandWithoutBuild(t *testing.T) {
	s := buildSystem(t, ontoscore.StrategyRelationships)
	res := searchQ(t, s, `"bronchial structure" theophylline`, 5)
	if len(res) == 0 {
		t.Fatal("on-demand search found nothing")
	}
	top := res[0]
	if top.Document == "" {
		t.Error("top result has no document name")
	}
	if top.Path == "" || top.Score <= 0 {
		t.Errorf("unresolved result: %+v", top)
	}
	if len(top.Matches) != 2 {
		t.Fatalf("matches = %d", len(top.Matches))
	}
	if top.Matches[0].Keyword != "bronchial structure" {
		t.Errorf("keyword = %q", top.Matches[0].Keyword)
	}
	// Results may be compact single-element covers (the paper's VII-A
	// observation). Every result must resolve to a real element whose
	// matches lie inside its subtree, and fragments must render.
	for _, r := range res {
		frag := s.Fragment(r)
		if !strings.Contains(frag, "codeSystem") && !strings.Contains(frag, "<") {
			t.Errorf("fragment not XML: %q", frag)
		}
		for _, m := range r.Matches {
			if !r.Root.IsAncestorOrSelf(m.ID) {
				t.Errorf("match %v outside result %v", m.ID, r.Root)
			}
		}
	}
}

func TestBuildIndexThenSearch(t *testing.T) {
	s := buildSystem(t, ontoscore.StrategyGraph)
	stats, err := s.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keywords == 0 || stats.TotalPostings == 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
	if s.BuildStats() != stats {
		t.Error("BuildStats mismatch")
	}
	res := searchQ(t, s, "cardiac arrest", 5)
	if len(res) == 0 {
		t.Fatal("no results after build")
	}
	if !strings.Contains(s.Summary(), "index:") {
		t.Errorf("summary = %q", s.Summary())
	}
}

func TestSearchConsistentBeforeAndAfterBuild(t *testing.T) {
	a := buildSystem(t, ontoscore.StrategyTaxonomy)
	b := buildSystem(t, ontoscore.StrategyTaxonomy)
	if _, err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"asthma medications", "cardiac arrest", "amiodarone arrhythmia"} {
		ra := searchQ(t, a, q, 10)
		rb := searchQ(t, b, q, 10)
		if len(ra) != len(rb) {
			t.Fatalf("q %q: %d vs %d results", q, len(ra), len(rb))
		}
		for i := range ra {
			if !ra[i].Root.Equal(rb[i].Root) || mathAbs(ra[i].Score-rb[i].Score) > 1e-9 {
				t.Errorf("q %q result %d differs: %v/%f vs %v/%f",
					q, i, ra[i].Root, ra[i].Score, rb[i].Root, rb[i].Score)
			}
		}
	}
}

func TestAccessors(t *testing.T) {
	s := buildSystem(t, ontoscore.StrategyNone)
	if s.Corpus() == nil || s.Ontology() == nil || s.Builder() == nil || s.Index() == nil {
		t.Error("nil accessor")
	}
	if s.Config().Strategy != ontoscore.StrategyNone {
		t.Error("config lost")
	}
	// Fragment of an unresolvable result is empty.
	if got := s.Fragment(Result{Root: xmltree.Dewey{99}}); got != "" {
		t.Errorf("fragment = %q", got)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestConcurrentSearches(t *testing.T) {
	s := buildSystem(t, ontoscore.StrategyRelationships)
	queries := []string{
		"asthma medications",
		`"bronchial structure" theophylline`,
		"cardiac arrest",
		"amiodarone arrhythmia",
	}
	// Baseline answers for determinism comparison.
	want := make(map[string]int, len(queries))
	for _, q := range queries {
		want[q] = len(searchQ(t, s, q, 10))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[(w+i)%len(queries)]
				if got := len(searchQ(t, s, q, 10)); got != want[q] {
					errs <- fmt.Errorf("q %q: %d results, want %d", q, got, want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoadIndexErrors(t *testing.T) {
	s := buildSystem(t, ontoscore.StrategyGraph)
	dir := t.TempDir()
	path := arena.FileFor(dir, s.Config().Strategy.String())
	fp := CorpusFingerprint(s.Corpus())
	if err := s.WriteArena(path, 1, fp); err == nil {
		t.Error("arena written before BuildIndex")
	}
	// Summary before any build omits index stats.
	if strings.Contains(s.Summary(), "index:") {
		t.Errorf("summary = %q", s.Summary())
	}
	if _, err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArena(path, 1, fp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write (superblock intact, table cut short) and a file too
	// small to hold a superblock are both refused at open.
	for name, b := range map[string][]byte{
		"truncated": data[:len(data)/2],
		"tiny":      data[:3],
	} {
		bad := filepath.Join(dir, name+arena.Ext)
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if a, err := arena.Open(bad, s.Builder().IDs()); err == nil {
			a.Close()
			t.Errorf("%s: corrupt arena opened", name)
		}
	}
}

// searchQ is the old Search convenience for tests: Query with a plain
// string and k, errors fatal.
func searchQ(t *testing.T, s *System, q string, k int) []Result {
	t.Helper()
	resp, err := s.Query(context.Background(), SearchRequest{Query: q, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results
}
