package ontoscore

import (
	"repro/internal/ontology"
)

// Graph computes OntoScores under the undirected, unlabeled view
// (Section IV-A): every edge, regardless of type or direction, carries
// flow attenuated by Decay.
func (c *Computer) Graph(keyword string) Scores {
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expand(seeds, c.params.Threshold, c.graphTransitions)
}

// GraphNaive is Graph computed with one independent expansion per seed
// (no Observation-1 merging). Identical results, used as the ablation
// baseline.
func (c *Computer) GraphNaive(keyword string) Scores {
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expandNaive(seeds, c.params.Threshold, c.graphTransitions)
}

// graphTransitions enumerates the Graph strategy's flow steps: every
// neighbor, regardless of edge type or direction, at factor Decay.
func (c *Computer) graphTransitions(id ontology.ConceptID, out []transition) []transition {
	for _, nb := range c.graph.Neighbors(id) {
		out = append(out, transition{to: nb, factor: c.params.Decay})
	}
	return out
}

// taxonomyTransitions enumerates the is-a flow steps shared by the
// Taxonomy and Relationships strategies:
//
//   - toward a direct superclass: factor 1 (unpenalized — the paper's
//     Section VII-A: "Taxonomy does not penalize the ontology expansion
//     when following is-a (parent) edges");
//   - toward a direct subclass: factor 1/NumSubclasses(current), the
//     ObjectRank-style split of authority among the children
//     (Section IV-B's partial-satisfaction heuristic; the worked example
//     divides by the parent's 26 direct subclasses).
func (c *Computer) taxonomyTransitions(id ontology.ConceptID, out []transition) []transition {
	for _, p := range c.graph.Superclasses(id) {
		out = append(out, transition{to: p, factor: 1})
	}
	if sub := c.graph.Subclasses(id); len(sub) > 0 {
		n := len(sub)
		f := 1 / float64(n)
		for _, s := range sub {
			out = append(out, transition{to: s, factor: f})
		}
	}
	return out
}

// Taxonomy computes OntoScores using only the taxonomic portion of the
// ontology (Section IV-B).
func (c *Computer) Taxonomy(keyword string) Scores {
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expand(seeds, c.params.Threshold, c.taxonomyTransitions)
}

// Relationships computes OntoScores under the description-logic view
// (Sections IV-C and VI-C). Is-a edges behave exactly as in Taxonomy.
// An attribute relationship r(subject, filler) is logically the
// subclass axiom "subject SUBCLASS-OF Exists r.filler"; the dotted link
// between the subject and the restriction node carries the decay beta
// of equation (9), splitting by the restriction's in-degree when flowing
// downward into the subjects, while the link between the restriction
// and its filler is free. Without materializing restriction nodes, the
// equivalent per-edge arithmetic is:
//
//   - subject -> filler: factor Beta (one dotted link upward);
//   - filler -> subject: factor Beta / inDegree, where inDegree is the
//     number of subjects sharing the restriction (the paper: "the
//     denominator is the in-degree of the existential role
//     restriction").
//
// TestRelationshipsMatchesELView verifies this arithmetic against an
// explicit expansion over the materialized EL view.
func (c *Computer) Relationships(keyword string) Scores {
	seeds := c.Seeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return expand(seeds, c.params.Threshold, c.relationshipTransitions)
}

// relationshipTransitions enumerates the Relationships strategy's flow
// steps: the is-a steps of Taxonomy plus both directions of every
// attribute relationship (see Relationships).
func (c *Computer) relationshipTransitions(id ontology.ConceptID, out []transition) []transition {
	b := c.params.Beta
	out = c.taxonomyTransitions(id, out)
	for _, e := range c.graph.Out(id) {
		if e.Type == ontology.IsA {
			continue
		}
		// id --r--> e.To: id is the subject, e.To the filler.
		out = append(out, transition{to: e.To, factor: b})
	}
	for _, e := range c.graph.In(id) {
		if e.Type == ontology.IsA {
			continue
		}
		// e.To --r--> id: id is the filler; flow splits among the
		// subjects of Exists r.id.
		n := c.graph.InDegree(id, e.Type)
		if n == 0 {
			continue
		}
		out = append(out, transition{to: e.To, factor: b / float64(n)})
	}
	return out
}
