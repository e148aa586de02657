package query

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// searchReq is the package's test shorthand for Engine.Query: the
// results, or the context's error.
func searchReq(ctx context.Context, e *Engine, req Request) ([]Result, error) {
	resp, err := e.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// search returns the top-k results for keywords under a background
// context (k <= 0 uses the engine default).
func search(e *Engine, kws []Keyword, k int) []Result {
	res, _ := searchReq(context.Background(), e, Request{Keywords: kws, K: k})
	return res
}

func figure1Setup(t *testing.T, strategy ontoscore.Strategy) (*Engine, *xmltree.Corpus) {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, strategy, dil.DefaultParams())
	return NewEngine(dil.NewIndex(), b, DefaultParams()), corpus
}

// The paper's Figure 4: query [asthma medications] on the Figure 1
// document returns the Observation element containing both the
// Medications code and the Asthma value.
func TestFigure4AsthmaMedications(t *testing.T) {
	e, corpus := figure1Setup(t, ontoscore.StrategyNone)
	res := search(e, ParseQuery("asthma medications"), 5)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	top := res[0]
	n := corpus.NodeAt(top.Root)
	if n == nil {
		t.Fatal("top result unresolvable")
	}
	if n.Tag != "Observation" {
		t.Errorf("top result tag = %q (path %s)", n.Tag, n.Path())
	}
	frag := xmltree.XMLString(corpus.NodeAt(top.Root))
	if !strings.Contains(frag, "Asthma") || !strings.Contains(frag, "Medications") {
		t.Errorf("fragment missing terms:\n%s", frag)
	}
}

// The intro example: "bronchial structure" + theophylline. The phrase
// never occurs in the document, so the XRANK baseline returns nothing;
// the ontology-enabled strategies connect the Asthma code node to the
// Theophylline entry.
func TestIntroExampleBronchialStructure(t *testing.T) {
	baseline, _ := figure1Setup(t, ontoscore.StrategyNone)
	if res := search(baseline, ParseQuery(`"bronchial structure" theophylline`), 5); len(res) != 0 {
		t.Fatalf("baseline returned %d results", len(res))
	}
	for _, s := range []ontoscore.Strategy{ontoscore.StrategyGraph, ontoscore.StrategyRelationships} {
		e, corpus := figure1Setup(t, s)
		res := search(e, ParseQuery(`"bronchial structure" theophylline`), 5)
		if len(res) == 0 {
			t.Fatalf("%v returned no results", s)
		}
		// The result tree must connect the Asthma node and the
		// Theophylline node: both matches inside the returned subtree.
		top := res[0]
		root := corpus.NodeAt(top.Root)
		if root == nil {
			t.Fatal("unresolvable result")
		}
		for i, m := range top.Matches {
			if !top.Root.IsAncestorOrSelf(m.ID) {
				t.Errorf("%v match %d outside result subtree", s, i)
			}
		}
		frag := xmltree.XMLString(corpus.NodeAt(top.Root))
		if !strings.Contains(frag, "Theophylline") {
			t.Errorf("%v fragment lacks Theophylline:\n%s", s, frag)
		}
	}
}

func TestEngineTopKAndOrdering(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 4, ExtraConcepts: 150, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 4, NumDocuments: 20, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyGraph, dil.DefaultParams())
	e := NewEngine(dil.NewIndex(), b, DefaultParams())

	all := search(e, ParseQuery("cardiac arrest"), 1000)
	if len(all) == 0 {
		t.Fatal("no results for common clinical terms")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Score < all[i].Score {
			t.Fatal("results not sorted by score")
		}
		if all[i-1].Score == all[i].Score && all[i-1].Root.Compare(all[i].Root) >= 0 {
			t.Fatal("tie-break not deterministic")
		}
	}
	top3 := search(e, ParseQuery("cardiac arrest"), 3)
	if len(top3) > 3 {
		t.Errorf("k=3 returned %d", len(top3))
	}
	for i := range top3 {
		if !top3[i].Root.Equal(all[i].Root) {
			t.Errorf("top-3 differs from prefix of full ranking at %d", i)
		}
	}
	// Default k when k <= 0.
	def := search(e, ParseQuery("cardiac arrest"), 0)
	if len(def) > DefaultParams().K {
		t.Errorf("default k exceeded: %d", len(def))
	}
}

func TestEngineEmptyQueryAndUnknownKeyword(t *testing.T) {
	e, _ := figure1Setup(t, ontoscore.StrategyGraph)
	if res := search(e, nil, 5); res != nil {
		t.Error("empty query returned results")
	}
	if res := search(e, ParseQuery("zzzzz theophylline"), 5); len(res) != 0 {
		t.Error("unknown keyword should produce no results")
	}
}

func TestEngineCachesOnDemandKeywords(t *testing.T) {
	counting := &countingBuilder{}
	e := NewEngine(dil.NewIndex(), counting, DefaultParams())
	search(e, ParseQuery("foo"), 1)
	search(e, ParseQuery("foo"), 1)
	if counting.calls != 1 {
		t.Errorf("builder called %d times, want 1 (cached)", counting.calls)
	}
}

type countingBuilder struct {
	oneElement
	calls int
}

func (c *countingBuilder) CompactKeyword(context.Context, string) *dil.CompactList {
	c.calls++
	return c.list()
}

// Property: every result's matches lie inside its subtree, scores are
// positive, and result roots are mutually non-nested (most-specific
// semantics) on random posting sets.
func TestQuickResultInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 2 + r.Intn(2)
		lists := make([][]entry, nk)
		for k := range lists {
			for i := 0; i < 1+r.Intn(8); i++ {
				depth := 1 + r.Intn(4)
				id := make(xmltree.Dewey, depth+1)
				id[0] = int32(r.Intn(3))
				for j := 1; j <= depth; j++ {
					id[j] = int32(r.Intn(3))
				}
				lists[k] = append(lists[k], entry{ID: id, Score: 0.1 + r.Float64()*0.9})
			}
			sortEntries(lists[k])
		}
		results := runDIL(lists, 0.5)
		for i, a := range results {
			if a.Score <= 0 {
				return false
			}
			for _, m := range a.Matches {
				if !a.Root.IsAncestorOrSelf(m.ID) {
					return false
				}
			}
			for j, b := range results {
				if i != j && a.Root.IsAncestorOf(b.Root) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: runDIL agrees with the brute-force definition on random
// posting sets.
func TestQuickDILMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 2 + r.Intn(2)
		lists := make([][]entry, nk)
		for k := range lists {
			seen := map[string]bool{}
			for i := 0; i < 1+r.Intn(6); i++ {
				depth := r.Intn(4)
				id := make(xmltree.Dewey, depth+1)
				id[0] = int32(r.Intn(2))
				for j := 1; j <= depth; j++ {
					id[j] = int32(r.Intn(2))
				}
				if seen[id.String()] {
					continue
				}
				seen[id.String()] = true
				lists[k] = append(lists[k], entry{ID: id, Score: 0.1 + r.Float64()*0.9})
			}
			sortEntries(lists[k])
		}
		want := bruteForce(lists, 0.5)
		got := runDIL(lists, 0.5)
		if len(got) != len(want) {
			return false
		}
		for _, res := range got {
			w, ok := want[res.Root.String()]
			if !ok || mathAbs(res.Score-w) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
