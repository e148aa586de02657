package dil

import (
	"testing"

	"repro/internal/cda"
	"repro/internal/elemrank"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func TestElemRankIntegration(t *testing.T) {
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)

	// The figure-1 document carries the originalText reference edge
	// (asthma value -> theophylline content anchor).
	if edges := elemrank.ExtractHyperlinks(doc); len(edges) == 0 {
		t.Fatal("figure-1 document has no hyperlink edges")
	}

	plainParams := DefaultParams()
	erParams := DefaultParams()
	p := elemrank.DefaultParams()
	erParams.ElemRank = &p

	plain := NewBuilder(corpus, ont, ontoscore.StrategyNone, plainParams)
	ranked := NewBuilder(corpus, ont, ontoscore.StrategyNone, erParams)
	if err := ranked.Err(); err != nil {
		t.Fatal(err)
	}

	lp := plain.BuildKeyword("theophylline")
	lr := ranked.BuildKeyword("theophylline")
	if len(lp) == 0 || len(lr) == 0 {
		t.Fatal("no postings")
	}
	if len(lr) > len(lp) {
		t.Errorf("ElemRank added postings: %d > %d", len(lr), len(lp))
	}
	// Every ranked score is <= the plain score for the same node (ranks
	// are max-normalized to <= 1).
	plainScores := make(map[string]float64, len(lp))
	for _, p := range plain.IDs().Entries(lp) {
		plainScores[p.ID.String()] = p.Score
	}
	for _, p := range ranked.IDs().Entries(lr) {
		if base, ok := plainScores[p.ID.String()]; !ok || p.Score > base+1e-12 {
			t.Errorf("posting %v: ranked %f vs plain %f", p.ID, p.Score, base)
		}
		if p.Score <= 0 {
			t.Errorf("non-positive ranked score at %v", p.ID)
		}
	}
}

func TestElemRankMisconfigurationSurfaces(t *testing.T) {
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	params := DefaultParams()
	bad := elemrank.Params{D1: 0.9, D2: 0.9, D3: 0.9, MaxIterations: 10}
	params.ElemRank = &bad
	b := NewBuilder(corpus, ont, ontoscore.StrategyNone, params)
	if b.Err() == nil {
		t.Error("invalid ElemRank params not surfaced")
	}
	// Degraded but functional: BuildKeyword still works without ranks.
	if l := b.BuildKeyword("theophylline"); len(l) == 0 {
		t.Error("builder unusable after ElemRank failure")
	}
}
