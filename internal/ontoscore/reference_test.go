package ontoscore

import (
	"testing"

	"repro/internal/ontology"
)

// The map-based expansion the dense kernel replaced, kept as the
// oracle it is held to: transitions enumerated per settled concept,
// every candidate pushed, a ConceptID-keyed map of finalized scores.

// transition is one outgoing flow step: the target concept and the
// multiplicative factor applied to the score.
type transition struct {
	to     ontology.ConceptID
	factor float64
}

// expandFn appends the transitions leaving a concept under a strategy
// to buf and returns it.
type expandFn func(id ontology.ConceptID, buf []transition) []transition

type scoreItem struct {
	id    ontology.ConceptID
	score float64
}

// scoreHeap is a max-heap on score with a deterministic id tie-break.
type scoreHeap []scoreItem

func (h scoreHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].id < h[j].id
}

func (h *scoreHeap) push(it scoreItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *scoreHeap) pop() scoreItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// expand runs the merged best-first expansion from the seeds, pruning
// below threshold, and returns the final score of every reached concept
// (seeds included).
func expand(seeds Scores, threshold float64, next expandFn) Scores {
	out := make(Scores, len(seeds))
	h := make(scoreHeap, 0, len(seeds))
	for id, s := range seeds {
		if s >= threshold {
			h.push(scoreItem{id: id, score: s})
		}
	}
	var buf []transition
	for len(h) > 0 {
		it := h.pop()
		if _, done := out[it.id]; done {
			continue // already finalized at a >= score
		}
		out[it.id] = it.score
		buf = next(it.id, buf[:0])
		for _, tr := range buf {
			if tr.factor <= 0 {
				continue
			}
			s := it.score * tr.factor
			if s < threshold {
				continue
			}
			if _, done := out[tr.to]; done {
				continue
			}
			h.push(scoreItem{id: tr.to, score: s})
		}
	}
	return out
}

// taxonomyTransitions enumerates the is-a flow steps shared by the
// Taxonomy and Relationships strategies: factor 1 toward a direct
// superclass, 1/NumSubclasses(current) toward a direct subclass.
func (c *Computer) taxonomyTransitions(id ontology.ConceptID, out []transition) []transition {
	for _, sup := range c.graph.Superclasses(id) {
		out = append(out, transition{to: sup, factor: 1})
	}
	if sub := c.graph.Subclasses(id); len(sub) > 0 {
		f := 1 / float64(len(sub))
		for _, x := range sub {
			out = append(out, transition{to: x, factor: f})
		}
	}
	return out
}

// referenceTransitions is the per-concept transition enumeration of
// each strategy over the frozen snapshot, as the computer did before
// its flow tables.
func referenceTransitions(c *Computer, s Strategy) expandFn {
	g, p := c.graph, c.params
	switch s {
	case StrategyGraph:
		return func(id ontology.ConceptID, out []transition) []transition {
			for _, nb := range g.Neighbors(id) {
				out = append(out, transition{to: nb, factor: p.Decay})
			}
			return out
		}
	case StrategyTaxonomy:
		return c.taxonomyTransitions
	case StrategyRelationships:
		return func(id ontology.ConceptID, out []transition) []transition {
			out = c.taxonomyTransitions(id, out)
			for _, e := range g.Out(id) {
				if e.Type != ontology.IsA {
					out = append(out, transition{to: e.To, factor: p.Beta})
				}
			}
			for _, e := range g.In(id) {
				if e.Type != ontology.IsA {
					if n := g.InDegree(id, e.Type); n > 0 {
						out = append(out, transition{to: e.To, factor: p.Beta / float64(n)})
					}
				}
			}
			return out
		}
	}
	return nil
}

// referenceCompute is Compute through the map-based expansion.
func referenceCompute(c *Computer, s Strategy, keyword string) Scores {
	next := referenceTransitions(c, s)
	if next == nil {
		return nil
	}
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expand(seeds, c.params.Threshold, next)
}

// generated builds a SNOMED-shaped ontology of about extra+300
// concepts.
func generated(t testing.TB, seed int64, extra int) *ontology.Ontology {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: seed, ExtraConcepts: extra, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ont
}

// The dense kernel reaches exactly the concepts the map-based
// expansion reaches, with bit-equal scores: on the medium experiment
// ontology and a 5 000-concept one, under every strategy, for every
// vocabulary token, a phrase and an absent keyword, and under
// non-default decay, beta and threshold (threshold 0 included).
func TestDenseMatchesReference(t *testing.T) {
	ontologies := []struct {
		name string
		ont  *ontology.Ontology
	}{
		{"medium", generated(t, 42, 2000)},
		{"5000", generated(t, 7, 4931)},
	}
	params := []Params{DefaultParams()}
	for _, edit := range []func(*Params){
		func(p *Params) { p.Decay, p.Beta, p.Threshold = 0.7, 0.3, 0.05 },
		func(p *Params) { p.Decay, p.Beta, p.Threshold = 0.35, 0.9, 0 },
	} {
		p := DefaultParams()
		edit(&p)
		params = append(params, p)
	}
	strategies := []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships}
	for _, o := range ontologies {
		for pi, p := range params {
			c := NewComputer(o.ont, p)
			keywords := []string{`"bronchial structure"`, "bronchial structure", "zzznothing"}
			vocab := o.ont.Vocabulary()
			if pi > 0 {
				// Every token under the defaults; under the others,
				// where the expansions reach much further, every fifth.
				var sample []string
				for i := 0; i < len(vocab); i += 5 {
					sample = append(sample, vocab[i])
				}
				vocab = sample
			}
			keywords = append(keywords, vocab...)
			checked := 0
			for _, s := range strategies {
				for _, kw := range keywords {
					want := referenceCompute(c, s, kw)
					got := c.Compute(s, kw)
					if len(got) != len(want) {
						t.Fatalf("%s params#%d %v %q: %d concepts, reference %d", o.name, pi, s, kw, len(got), len(want))
					}
					for id, v := range want {
						if g, ok := got[id]; !ok || g != v {
							t.Fatalf("%s params#%d %v %q concept %d: %v (present %v), reference %v", o.name, pi, s, kw, id, g, ok, v)
						}
					}
					checked += len(want)
				}
			}
			if checked == 0 {
				t.Fatalf("%s params#%d: nothing scored", o.name, pi)
			}
		}
	}
}
