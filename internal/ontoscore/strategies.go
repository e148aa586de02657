package ontoscore

import (
	"context"

	"repro/internal/obs"
	"repro/internal/ontology"
)

// Graph computes OntoScores under the undirected, unlabeled view
// (Section IV-A): every edge, regardless of type or direction, carries
// flow attenuated by Decay.
func (c *Computer) Graph(keyword string) Scores {
	return c.scoresOf(c.propagate(StrategyGraph, keyword))
}

// GraphNaive is Graph computed with one independent expansion per seed
// (no Observation-1 merging). Identical results, used as the ablation
// baseline.
func (c *Computer) GraphNaive(keyword string) Scores {
	seeds := c.denseSeeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	return c.expandNaive(&c.flows[StrategyGraph], seeds, c.params.Threshold)
}

// Taxonomy computes OntoScores using only the taxonomic portion of the
// ontology (Section IV-B).
func (c *Computer) Taxonomy(keyword string) Scores {
	return c.scoresOf(c.propagate(StrategyTaxonomy, keyword))
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
	return c.scoresOf(c.propagate(StrategyRelationships, keyword))
}

// buildFlows tabulates every strategy's transitions over the frozen
// snapshot, once per computer.
func (c *Computer) buildFlows() {
	g, p := c.graph, c.params
	// Graph: every neighbor, regardless of edge type or direction, at
	// factor Decay.
	c.flows[StrategyGraph] = buildFlow(g, func(id ontology.ConceptID, add func(ontology.ConceptID, float64)) {
		for _, nb := range g.Neighbors(id) {
			add(nb, p.Decay)
		}
	})
	// The is-a flow steps shared by Taxonomy and Relationships:
	//
	//   - toward a direct superclass: factor 1 (unpenalized — the
	//     paper's Section VII-A: "Taxonomy does not penalize the
	//     ontology expansion when following is-a (parent) edges");
	//   - toward a direct subclass: factor 1/NumSubclasses(current),
	//     the ObjectRank-style split of authority among the children
	//     (Section IV-B's partial-satisfaction heuristic; the worked
	//     example divides by the parent's 26 direct subclasses).
	taxonomy := func(id ontology.ConceptID, add func(ontology.ConceptID, float64)) {
		for _, sup := range g.Superclasses(id) {
			add(sup, 1)
		}
		if sub := g.Subclasses(id); len(sub) > 0 {
			f := 1 / float64(len(sub))
			for _, s := range sub {
				add(s, f)
			}
		}
	}
	c.flows[StrategyTaxonomy] = buildFlow(g, taxonomy)
	// Relationships: the is-a steps plus both directions of every
	// attribute relationship (see Relationships).
	c.flows[StrategyRelationships] = buildFlow(g, func(id ontology.ConceptID, add func(ontology.ConceptID, float64)) {
		taxonomy(id, add)
		for _, e := range g.Out(id) {
			if e.Type != ontology.IsA {
				// id --r--> e.To: id is the subject, e.To the filler.
				add(e.To, p.Beta)
			}
		}
		for _, e := range g.In(id) {
			if e.Type == ontology.IsA {
				continue
			}
			// e.To --r--> id: id is the filler; flow splits among the
			// subjects of Exists r.id.
			if n := g.InDegree(id, e.Type); n > 0 {
				add(e.To, p.Beta/float64(n))
			}
		}
	})
}

// propagate evaluates one strategy for one keyword over the dense
// numbering: the empty result for StrategyNone, an unknown strategy or
// a keyword no concept contains.
func (c *Computer) propagate(s Strategy, keyword string) Dense {
	if s <= StrategyNone || s > StrategyRelationships {
		return Dense{}
	}
	seeds := c.denseSeeds(keyword)
	if len(seeds) == 0 {
		return Dense{}
	}
	return c.expand(&c.flows[s], seeds, c.params.Threshold)
}

// propagateCtx is propagate recorded as an "ontoscore.propagate" span
// with the system, strategy, keyword, and result size when the context
// carries an active obs trace — the paper's per-stage cost attribution
// (Table III's OntoScore column) measured per query instead of per
// build.
func (c *Computer) propagateCtx(ctx context.Context, s Strategy, keyword string) Dense {
	_, sp := obs.StartSpan(ctx, "ontoscore.propagate")
	sp.SetAttr("system", c.ont.SystemID)
	sp.SetAttr("strategy", s.String())
	sp.SetAttr("keyword", keyword)
	d := c.propagate(s, keyword)
	sp.SetAttr("concepts", d.Len())
	sp.End()
	return d
}

// scoresOf converts a dense result to a ConceptID-keyed map (nil when
// empty).
func (c *Computer) scoresOf(d Dense) Scores {
	if d.Len() == 0 {
		return nil
	}
	out := make(Scores, d.Len())
	for i, idx := range d.Idx {
		out[c.graph.ID(int(idx))] = d.Score[i]
	}
	return out
}
