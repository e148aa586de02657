package ontoscore

import (
	"math"
	"testing"

	"repro/internal/ontology"
)

func newComputer(t *testing.T) (*Computer, *ontology.Ontology) {
	t.Helper()
	ont := ontology.Figure2Fragment()
	return NewComputer(ont, DefaultParams()), ont
}

func idOf(t *testing.T, ont *ontology.Ontology, pref string) ontology.ConceptID {
	t.Helper()
	c := ont.ByPreferred(pref)
	if c == nil {
		t.Fatalf("concept %q missing", pref)
	}
	return c.ID
}

func TestStrategyNames(t *testing.T) {
	for _, s := range Strategies() {
		name := s.String()
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy parsed")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy String empty")
	}
}

func TestSeedsContainment(t *testing.T) {
	c, ont := newComputer(t)
	seeds := c.Seeds("asthma")
	if len(seeds) != 7 {
		t.Fatalf("seeds = %d concepts, want 7", len(seeds))
	}
	max := 0.0
	for _, s := range seeds {
		if s <= 0 || s > 1 {
			t.Fatalf("seed score %f out of (0,1]", s)
		}
		if s > max {
			max = s
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Errorf("max seed = %f, want 1", max)
	}
	// The concept literally named "Asthma" should be the strongest seed
	// (shortest matching document).
	asthma := idOf(t, ont, "Asthma")
	if seeds[asthma] < max-1e-12 {
		t.Errorf("Asthma seed = %f, max = %f", seeds[asthma], max)
	}
	if got := c.Seeds("zzznothing"); got != nil {
		t.Errorf("unknown keyword seeds = %v", got)
	}
}

func TestComputeDispatch(t *testing.T) {
	c, _ := newComputer(t)
	if got := c.Compute(StrategyNone, "asthma"); got != nil {
		t.Error("StrategyNone must not expand")
	}
	if got := c.Compute(Strategy(42), "asthma"); got != nil {
		t.Error("unknown strategy must return nil")
	}
	for _, s := range []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships} {
		if got := c.Compute(s, "asthma"); len(got) == 0 {
			t.Errorf("%v returned no scores", s)
		}
	}
}

// The intro example: the keyword "bronchial structure" does not occur in
// the Figure-1 document, but its concept is one finding-site-of edge
// from Asthma. Graph and Relationships must give Asthma a nonzero
// OntoScore for it; Taxonomy must not (no is-a path carries it above
// threshold at distance > taxonomy reach).
func TestBronchialStructureReachesAsthma(t *testing.T) {
	c, ont := newComputer(t)
	asthma := idOf(t, ont, "Asthma")
	bronchial := idOf(t, ont, "Bronchial structure")

	graph := c.Graph("bronchial structure")
	if graph[bronchial] < 0.99 {
		t.Errorf("seed score lost: %f", graph[bronchial])
	}
	// One undirected edge away: decay^1 * 1.0 = 0.5.
	if math.Abs(graph[asthma]-0.5) > 1e-9 {
		t.Errorf("Graph OS(asthma | bronchial structure) = %f, want 0.5", graph[asthma])
	}

	rel := c.Relationships("bronchial structure")
	// Two paths reach Asthma: the direct finding-site-of edge from the
	// filler back to the subject (beta / inDegree = 0.5/3), and the
	// stronger Bronchial structure -> Bronchus (is-a down, sole child)
	// -> Disorder of bronchus (finding-site-of back, beta/1) -> Asthma
	// (is-a down, one of two children) = 1 * 0.5 * 0.5 = 0.25. Max wins.
	want := 0.25
	if 0.5/3 < c.Params().Threshold {
		t.Fatalf("test setup broken: direct path below threshold")
	}
	if math.Abs(rel[asthma]-want) > 1e-9 {
		t.Errorf("Relationships OS(asthma) = %f, want %f", rel[asthma], want)
	}

	tax := c.Taxonomy("bronchial structure")
	if _, ok := tax[asthma]; ok {
		t.Errorf("Taxonomy must not reach Asthma from a body structure: %f", tax[asthma])
	}
}

func TestTaxonomyUpwardUnpenalized(t *testing.T) {
	c, ont := newComputer(t)
	tax := c.Taxonomy("asthma")
	asthma := idOf(t, ont, "Asthma")
	disBronchus := idOf(t, ont, "Disorder of bronchus")
	disThorax := idOf(t, ont, "Disorder of thorax")
	// Ancestors receive the full seed score (paper Section VII-A:
	// parent edges are not penalized).
	if math.Abs(tax[disBronchus]-tax[asthma]) > 1e-9 {
		t.Errorf("direct superclass got %f, seed %f", tax[disBronchus], tax[asthma])
	}
	if math.Abs(tax[disThorax]-tax[asthma]) > 1e-9 {
		t.Errorf("far ancestor got %f, seed %f", tax[disThorax], tax[asthma])
	}
}

func TestTaxonomyDownwardSplit(t *testing.T) {
	// Seed at Disorder of bronchus; Asthma is one of its 2 direct
	// subclasses (Asthma, Bronchitis), so it gets seed/2 — the worked
	// example's IRS * (1/n) rule.
	c, ont := newComputer(t)
	tax := c.Taxonomy("disorder of bronchus")
	dob := idOf(t, ont, "Disorder of bronchus")
	asthma := idOf(t, ont, "Asthma")
	if len(ont.Subclasses(dob)) != 2 {
		t.Fatalf("fragment changed: DOB has %d subclasses", len(ont.Subclasses(dob)))
	}
	want := tax[dob] / 2
	if math.Abs(tax[asthma]-want) > 1e-9 {
		t.Errorf("OS(asthma) = %f, want seed/2 = %f", tax[asthma], want)
	}
	// Asthma's own subclasses: a further split by 6, 1/12 of the seed —
	// below threshold 0.1, so pruned.
	attack := idOf(t, ont, "Asthma attack")
	if v, ok := tax[attack]; ok {
		t.Errorf("Asthma attack should be pruned, got %f", v)
	}
}

func TestThresholdPruning(t *testing.T) {
	_, ont := newComputer(t)
	loose := NewComputer(ont, Params{Decay: 0.5, Beta: 0.5, Threshold: 0.0001, BM25: DefaultParams().BM25})
	strict := NewComputer(ont, Params{Decay: 0.5, Beta: 0.5, Threshold: 0.3, BM25: DefaultParams().BM25})
	l := loose.Graph("asthma")
	s := strict.Graph("asthma")
	if len(s) >= len(l) {
		t.Errorf("strict threshold kept %d >= loose %d", len(s), len(l))
	}
	for id, v := range s {
		if v < 0.3 {
			t.Errorf("score %f below threshold recorded for %d", v, id)
		}
		if math.Abs(l[id]-v) > 1e-9 {
			t.Errorf("threshold changed retained score: %f vs %f", l[id], v)
		}
	}
}

func TestGraphDecayDistance(t *testing.T) {
	c, ont := newComputer(t)
	g := c.Graph("theophylline")
	theo := idOf(t, ont, "Theophylline")
	asthma := idOf(t, ont, "Asthma")
	broncho := idOf(t, ont, "Bronchodilator agent")
	if math.Abs(g[theo]-1) > 1e-9 {
		t.Errorf("seed = %f", g[theo])
	}
	// Asthma is 1 edge away (treated-by), Bronchodilator agent 1 edge
	// (is-a).
	if math.Abs(g[asthma]-0.5) > 1e-9 || math.Abs(g[broncho]-0.5) > 1e-9 {
		t.Errorf("distance-1 scores: asthma=%f broncho=%f", g[asthma], g[broncho])
	}
	// Everything reached scores decay^dist exactly for a single seed.
	for id, v := range g {
		d := ont.GraphDistance(theo, id)
		if d < 0 {
			t.Fatalf("unreachable concept scored: %d", id)
		}
		want := math.Pow(0.5, float64(d))
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("concept %d at distance %d scored %f, want %f", id, d, v, want)
		}
	}
}

// Observation 1: the merged expansion equals the naive per-seed
// expansion merged with max.
func TestMergedBFSEquivalence(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 17, ExtraConcepts: 300, SynonymProb: 0.4,
		MultiParentProb: 0.2, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewComputer(ont, DefaultParams())
	for _, kw := range []string{"asthma", "structure", "cardiac", "stenosis", "chronic"} {
		merged := c.Graph(kw)
		naive := c.GraphNaive(kw)
		if len(merged) != len(naive) {
			t.Fatalf("kw %q: merged %d concepts, naive %d", kw, len(merged), len(naive))
		}
		for id, v := range merged {
			if math.Abs(naive[id]-v) > 1e-9 {
				t.Errorf("kw %q concept %d: merged %f naive %f", kw, id, v, naive[id])
			}
		}
	}
}

// The Relationships strategy's implicit arithmetic must match an
// explicit expansion over the materialized EL view.
func TestRelationshipsMatchesELView(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 23, ExtraConcepts: 200, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	c := NewComputer(ont, params)
	view := ontology.NewELView(ont)

	// Explicit expansion over concepts plus restriction nodes.
	// Node encoding: concepts as-is, restrictions offset beyond the
	// largest concept ID.
	base := ontology.ConceptID(1 << 30)
	encodeR := func(r ontology.RestrictionID) ontology.ConceptID {
		return base + ontology.ConceptID(r)
	}
	isRestriction := func(id ontology.ConceptID) bool { return id >= base }

	next := func(id ontology.ConceptID, out []transition) []transition {
		if isRestriction(id) {
			rid := ontology.RestrictionID(id - base)
			r, _ := view.Restriction(rid)
			// Restriction <-> filler link is free.
			out = append(out, transition{to: r.Filler, factor: 1})
			// Dotted links down to the subjects carry beta, split by the
			// restriction's in-degree.
			n := view.InDegree(rid)
			for _, subj := range view.Subjects(rid) {
				out = append(out, transition{to: subj, factor: params.Beta / float64(n)})
			}
			return out
		}
		out = c.taxonomyTransitions(id, out)
		for _, rid := range view.RestrictionsOf(id) {
			// Subject up into its restriction: the dotted link, beta.
			out = append(out, transition{to: encodeR(rid), factor: params.Beta})
		}
		for _, rid := range view.RestrictionsWithFiller(id) {
			// Filler into the restriction: free.
			out = append(out, transition{to: encodeR(rid), factor: 1})
		}
		return out
	}

	for _, kw := range []string{"asthma", "aspirin", "cardiac", "structure"} {
		seeds := c.Seeds(kw)
		explicit := expand(seeds, params.Threshold, next)
		implicit := c.Relationships(kw)
		// Compare on real concepts only.
		for id, v := range implicit {
			ev, ok := explicit[id]
			if !ok {
				t.Errorf("kw %q: implicit reached %d (%.4f), explicit did not", kw, id, v)
				continue
			}
			if math.Abs(ev-v) > 1e-9 {
				t.Errorf("kw %q concept %d: implicit %f explicit %f", kw, id, v, ev)
			}
		}
		for id, v := range explicit {
			if isRestriction(id) || v < params.Threshold {
				continue
			}
			if _, ok := implicit[id]; !ok {
				t.Errorf("kw %q: explicit reached %d (%.4f), implicit did not", kw, id, v)
			}
		}
	}
}

func TestRelationshipsExtendTaxonomy(t *testing.T) {
	// Every concept the Taxonomy strategy reaches is also reached by
	// Relationships with at least the same score.
	c, _ := newComputer(t)
	for _, kw := range []string{"asthma", "bronchitis", "medications"} {
		tax := c.Taxonomy(kw)
		rel := c.Relationships(kw)
		for id, tv := range tax {
			rv, ok := rel[id]
			if !ok {
				t.Errorf("kw %q: concept %d in Taxonomy but not Relationships", kw, id)
				continue
			}
			if rv < tv-1e-9 {
				t.Errorf("kw %q concept %d: Relationships %f < Taxonomy %f", kw, id, rv, tv)
			}
		}
	}
}

func TestScoresWithinUnitInterval(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 5, ExtraConcepts: 250, SynonymProb: 0.4,
		MultiParentProb: 0.2, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewComputer(ont, DefaultParams())
	for _, s := range []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships} {
		for _, kw := range []string{"chronic", "structure", "arrest"} {
			for id, v := range c.Compute(s, kw) {
				if v <= 0 || v > 1+1e-9 {
					t.Errorf("%v %q concept %d: score %f outside (0,1]", s, kw, id, v)
				}
				if v < c.Params().Threshold {
					t.Errorf("%v %q concept %d: score %f below threshold", s, kw, id, v)
				}
			}
		}
	}
}
