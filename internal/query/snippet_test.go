package query

import (
	"strings"
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func snippetFixture(t *testing.T, s ontoscore.Strategy) (*Engine, *xmltree.Corpus) {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, s, dil.DefaultParams())
	return NewEngine(dil.NewIndex(), b, DefaultParams()), corpus
}

func TestSnippetLiteralMatch(t *testing.T) {
	// The XRANK baseline guarantees both matches are literal.
	e, corpus := snippetFixture(t, ontoscore.StrategyNone)
	kws := ParseQuery("asthma medications")
	res := search(e, kws, 1)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	s := Snippet(corpus, res[0], kws, 8)
	if s == "" {
		t.Fatal("empty snippet")
	}
	low := strings.ToLower(s)
	if !strings.Contains(low, "asthma") {
		t.Errorf("snippet misses keyword: %q", s)
	}
	if strings.Contains(s, "[≈") {
		t.Errorf("literal match annotated as ontological: %q", s)
	}
}

func TestSnippetOntologicalAnnotation(t *testing.T) {
	e, corpus := snippetFixture(t, ontoscore.StrategyRelationships)
	kws := ParseQuery(`"bronchial structure" theophylline`)
	res := search(e, kws, 3)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// Some result's snippet must carry the ontological annotation for
	// the keyword that is absent from the document text.
	annotated := false
	for _, r := range res {
		s := Snippet(corpus, r, kws, 8)
		if strings.Contains(s, "[≈ bronchial structure]") {
			annotated = true
		}
	}
	if !annotated {
		t.Error("no snippet annotates the ontological match")
	}
}

func TestSnippetWindowing(t *testing.T) {
	// A long text gets trimmed with ellipses around the match.
	n := &xmltree.Node{Tag: "text", Text: strings.Repeat("filler ", 30) + "theophylline dose" + strings.Repeat(" trailing", 30)}
	doc := &xmltree.Document{Root: &xmltree.Node{Tag: "root"}}
	doc.Root.AppendChild(n)
	corpus := xmltree.NewCorpus()
	corpus.Add(doc)
	r := Result{
		Root:    doc.Root.ID,
		Matches: []Match{{ID: n.ID, Score: 1}},
	}
	s := Snippet(corpus, r, []Keyword{"theophylline"}, 6)
	if !strings.Contains(s, "theophylline") {
		t.Fatalf("match lost: %q", s)
	}
	if !strings.HasPrefix(s, "… ") || !strings.HasSuffix(s, " …") {
		t.Errorf("no ellipses: %q", s)
	}
	if len(strings.Fields(s)) > 14 {
		t.Errorf("window too wide: %q", s)
	}
}

func TestSnippetDegenerate(t *testing.T) {
	corpus := xmltree.NewCorpus()
	if s := Snippet(corpus, Result{}, nil, 0); s != "" {
		t.Errorf("empty result snippet = %q", s)
	}
	// Match pointing nowhere.
	r := Result{Matches: []Match{{ID: xmltree.Dewey{9, 9}}}}
	if s := Snippet(corpus, r, []Keyword{"x"}, 4); s != "" {
		t.Errorf("dangling match snippet = %q", s)
	}
}
