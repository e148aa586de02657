package dil

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cda"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// figure1Builder wires the Figure 1 CDA document against the Figure 2
// SNOMED fragment with the relationships strategy — ontology-enriched,
// so the IR-only and full builds genuinely differ.
func figure1Builder(t *testing.T) *Builder {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	return NewBuilder(corpus, ont, ontoscore.StrategyRelationships, DefaultParams())
}

// The IR-only build is byte-identical to the same builder with
// the ontology branch empty — and never includes ontology-only
// postings.
func TestBuildKeywordIRMatchesTextOnly(t *testing.T) {
	b := figure1Builder(t)
	full := b.IDs().Entries(b.BuildKeyword("asthma"))
	ir := b.IDs().Entries(b.BuildKeywordIRCtx(context.Background(), "asthma"))
	if len(ir) == 0 {
		t.Fatal("IR-only build empty for a textual keyword")
	}
	if len(ir) > len(full) {
		t.Fatalf("IR-only build (%d postings) larger than full build (%d)", len(ir), len(full))
	}
	// Every IR posting appears in the full build with at least its score
	// (equation (5) takes the max of the IR and ontology branches).
	fullAt := make(map[string]float64, len(full))
	for _, p := range full {
		fullAt[p.ID.String()] = p.Score
	}
	for _, p := range ir {
		fs, ok := fullAt[p.ID.String()]
		if !ok || fs < p.Score {
			t.Errorf("posting %s: full=%v ir=%v", p.ID, fs, p.Score)
		}
	}
}

// Builds read OntoScores through the side's memo: a keyword's third
// build is a memo hit (the span says so) and answers what the first
// build did.
func TestSideMemoHit(t *testing.T) {
	b := figure1Builder(t)
	build := func() (List, string) {
		t.Helper()
		ctx, root := obs.NewTracer(4).StartRoot(context.Background(), "test")
		l := b.BuildKeywordCtx(ctx, "asthma")
		root.End()
		tree := root.Tree()
		return l, fmt.Sprint(tree.Find("dil.build_keyword").Attrs["onto"])
	}
	want, src := build()
	if src != "propagated" {
		t.Fatalf("first build: onto=%s, want propagated", src)
	}
	if _, src = build(); src != "propagated" {
		t.Fatalf("second build: onto=%s, want propagated (admitted, not yet served)", src)
	}
	got, src := build()
	if src != "memo" {
		t.Fatalf("third build: onto=%s, want memo", src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("memo hit built a different list")
	}
}
