package ontoscore

import (
	"testing"

	"repro/internal/ontology"
)

// mapBackedCompute is the reference expansion: the three strategies'
// per-edge factors spelled out over the mutable, map-backed
// ontology.Ontology (whose accessors allocate and sort per call), with
// the same seeds and the same merged best-first engine. The computer
// traverses only the frozen CSR snapshot; this keeps the map-backed
// traversal as the oracle it is held to.
func mapBackedCompute(c *Computer, s Strategy, keyword string) Scores {
	o, p := c.ont, c.params
	taxonomy := func(id ontology.ConceptID, out []transition) []transition {
		for _, sup := range o.Superclasses(id) {
			out = append(out, transition{to: sup, factor: 1})
		}
		if sub := o.Subclasses(id); len(sub) > 0 {
			for _, x := range sub {
				out = append(out, transition{to: x, factor: 1 / float64(len(sub))})
			}
		}
		return out
	}
	var next expandFn
	switch s {
	case StrategyGraph:
		next = func(id ontology.ConceptID, out []transition) []transition {
			for _, nb := range o.Neighbors(id) {
				out = append(out, transition{to: nb, factor: p.Decay})
			}
			return out
		}
	case StrategyTaxonomy:
		next = taxonomy
	case StrategyRelationships:
		next = func(id ontology.ConceptID, out []transition) []transition {
			out = taxonomy(id, out)
			for _, e := range o.Out(id) {
				if e.Type != ontology.IsA {
					out = append(out, transition{to: e.To, factor: p.Beta})
				}
			}
			for _, e := range o.In(id) {
				if e.Type != ontology.IsA {
					if n := o.InDegree(id, e.Type); n > 0 {
						out = append(out, transition{to: e.To, factor: p.Beta / float64(n)})
					}
				}
			}
			return out
		}
	default:
		return nil
	}
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expand(seeds, p.Threshold, next)
}

// The frozen-graph computer produces bit-identical scores to the
// map-backed reference under every strategy.
func TestFrozenComputerEquivalence(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 19, ExtraConcepts: 250, SynonymProb: 0.4,
		MultiParentProb: 0.2, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewComputer(ont, DefaultParams())
	for _, s := range []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships} {
		for _, kw := range []string{"asthma", "structure", "cardiac", "chronic", "aspirin", `"bronchial structure"`} {
			want := mapBackedCompute(c, s, kw)
			got := c.Compute(s, kw)
			if len(got) != len(want) {
				t.Fatalf("%v %q: %d vs %d concepts", s, kw, len(got), len(want))
			}
			for id, v := range want {
				if g, ok := got[id]; !ok || g != v {
					t.Errorf("%v %q concept %d: %v vs reference %v", s, kw, id, g, v)
				}
			}
		}
	}
}

func BenchmarkExpansionMapBacked(b *testing.B) {
	c := benchComputer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(mapBackedCompute(c, StrategyRelationships, "structure")) == 0 {
			b.Fatal("no scores")
		}
	}
}

func BenchmarkExpansionFrozen(b *testing.B) {
	c := benchComputer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Relationships("structure")) == 0 {
			b.Fatal("no scores")
		}
	}
}

func benchComputer(b *testing.B) *Computer {
	b.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 19, ExtraConcepts: 800, SynonymProb: 0.4,
		MultiParentProb: 0.2, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return NewComputer(ont, DefaultParams())
}

// BenchmarkCompute propagates a fixed keyword sample under each
// strategy on a 5 000-concept ontology: one op is one keyword.
func BenchmarkCompute(b *testing.B) {
	c := NewComputer(generated(b, 7, 4931), DefaultParams())
	keywords := []string{"asthma", "cardiac", "structure", "chronic", "stenosis", "aspirin", "disorder", "agent"}
	for _, s := range []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.Compute(s, keywords[i%len(keywords)]) == nil && i < len(keywords) {
					b.Fatalf("%q reaches nothing", keywords[i%len(keywords)])
				}
			}
		})
	}
}
