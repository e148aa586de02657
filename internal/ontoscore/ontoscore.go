// Package ontoscore computes the semantic relevance of ontology
// concepts to query keywords — the OntoScore of the paper's Sections IV
// and VI. Three strategies are provided:
//
//   - Graph: the ontology as an undirected, unlabeled graph; authority
//     decays by a constant factor per edge (Section IV-A).
//   - Taxonomy: only is-a links; flowing to a superclass is free (the
//     paper: "Taxonomy does not penalize the ontology expansion when
//     following is-a (parent) edges"), flowing to a direct subclass
//     splits the score by the parent's subclass count, as in
//     ObjectRank's authority-flow distribution (Section IV-B).
//   - Relationships: the description-logic view; attribute
//     relationships are traversed through virtual existential role
//     restrictions, each dotted link decaying the score by beta, with
//     the restriction's in-degree splitting flow toward subjects
//     (Sections IV-C and VI-C). Is-a edges behave as in Taxonomy.
//
// All strategies share one engine: a merged best-first expansion from
// every concept containing the keyword (the paper's Algorithm 1 with
// the Observation-1 optimization), pruned below a score threshold, run
// over precomputed per-strategy flow tables.
// Seeds are scored by normalized BM25 over concepts-viewed-as-documents.
package ontoscore

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// Strategy selects an OntoScore computation method. StrategyNone is the
// XRANK baseline: no ontological expansion at all.
type Strategy int

const (
	StrategyNone Strategy = iota
	StrategyGraph
	StrategyTaxonomy
	StrategyRelationships
)

var strategyNames = map[Strategy]string{
	StrategyNone:          "XRANK",
	StrategyGraph:         "Graph",
	StrategyTaxonomy:      "Taxonomy",
	StrategyRelationships: "Relationships",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy by its display name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("ontoscore: unknown strategy %q", name)
}

// Strategies lists every strategy in presentation order (the four
// columns of the paper's tables).
func Strategies() []Strategy {
	return []Strategy{StrategyNone, StrategyGraph, StrategyTaxonomy, StrategyRelationships}
}

// Params are the knobs of the OntoScore computation; the paper's
// experiments set Decay = 0.5, Threshold = 0.1 and beta = 0.5.
type Params struct {
	// Decay is the per-edge attenuation of the Graph strategy.
	Decay float64
	// Beta is the attenuation applied per dotted link when traversing
	// an existential role restriction (Relationships strategy).
	Beta float64
	// Threshold prunes expansion: concepts scoring below it are neither
	// recorded nor expanded from.
	Threshold float64
	// BM25 parameterizes the IRS function over ontology concepts.
	BM25 ir.BM25Params
}

// DefaultParams returns the paper's experimental settings.
func DefaultParams() Params {
	return Params{Decay: 0.5, Beta: 0.5, Threshold: 0.1, BM25: ir.DefaultBM25()}
}

// Scores maps concepts to their OntoScore for one keyword.
type Scores map[ontology.ConceptID]float64

// Computer evaluates OntoScores against one ontology: the concept-level
// IR index (terms as documents, with token positions), the frozen CSR
// snapshot of the graph and one flow table per strategy over it, all
// built once; the expansion reads nothing else. Keyword evaluations are
// independent and safe to run concurrently after construction. Serving
// code gets its computers from a Side, built once per ontology
// collection, and reads their scores through the side's memo.
type Computer struct {
	ont    *ontology.Ontology
	graph  *ontology.Frozen
	params Params
	index  *ir.Index

	flows     [StrategyRelationships + 1]flow // by strategy; StrategyNone empty
	expanders sync.Pool                       // *expander
}

// NewComputer indexes the ontology's term texts, freezes its graph,
// tabulates each strategy's transitions, and returns a ready computer.
// Later mutations of the ontology are not reflected.
func NewComputer(ont *ontology.Ontology, params Params) *Computer {
	c := &Computer{ont: ont, graph: ontology.Freeze(ont), params: params, index: ir.NewIndex()}
	for _, id := range ont.Concepts() {
		c.index.Add(ir.DocKey(id), tokenize(ont.TermText(id)))
	}
	c.buildFlows()
	c.expanders.New = c.newExpander
	return c
}

// Ontology returns the ontology the computer evaluates against.
func (c *Computer) Ontology() *ontology.Ontology { return c.ont }

// Concepts is the number of concepts of the computer's snapshot.
func (c *Computer) Concepts() int { return c.graph.Len() }

// Dense returns a concept's index in [0, Concepts()) — the subscript of
// per-concept tables built over this computer — and whether the
// concept exists.
func (c *Computer) Dense(id ontology.ConceptID) (int, bool) { return c.graph.Dense(id) }

// Params returns the computation parameters.
func (c *Computer) Params() Params { return c.params }

// Seeds computes IRS_O(x, w) for every concept x containing the keyword
// (as a contiguous token phrase in one of its terms), normalized to
// (0, 1] over the containing set. These are the authority sources of
// Algorithm 1.
func (c *Computer) Seeds(keyword string) Scores {
	seeds := c.denseSeeds(keyword)
	if len(seeds) == 0 {
		return nil
	}
	out := make(Scores, len(seeds))
	for _, s := range seeds {
		out[c.graph.ID(int(s.idx))] = s.score
	}
	return out
}

// denseSeeds is Seeds over the dense numbering, in ascending order.
func (c *Computer) denseSeeds(keyword string) []denseItem {
	containing := c.ont.ConceptsContaining(keyword)
	if len(containing) == 0 {
		return nil
	}
	keys := make([]ir.DocKey, len(containing))
	for i, id := range containing {
		keys[i] = ir.DocKey(id)
	}
	scored := c.index.BM25Docs(c.params.BM25, keys, tokenize(keyword))
	seeds := make([]denseItem, len(scored))
	max := 0.0
	for i, sd := range scored {
		d, _ := c.graph.Dense(ontology.ConceptID(sd.Doc))
		seeds[i] = denseItem{idx: int32(d), score: sd.Score}
		if sd.Score > max {
			max = sd.Score
		}
	}
	for i := range seeds {
		if max == 0 {
			// Degenerate (e.g. single-concept collection); treat
			// containment as full relevance.
			seeds[i].score = 1
		} else {
			seeds[i].score /= max
		}
	}
	return seeds
}

// Compute evaluates the strategy for one keyword, returning every
// concept whose OntoScore meets the threshold. StrategyNone returns nil:
// the baseline uses no ontological association.
func (c *Computer) Compute(s Strategy, keyword string) Scores {
	return c.scoresOf(c.propagate(s, keyword))
}

// ComputeCtx is Compute under a context: when the context carries an
// active obs trace, the propagation is recorded as an
// "ontoscore.propagate" span with the system, strategy, keyword, and
// result size. It always propagates; index creation reads scores
// through Side.Scores instead.
func (c *Computer) ComputeCtx(ctx context.Context, s Strategy, keyword string) Scores {
	return c.scoresOf(c.propagateCtx(ctx, s, keyword))
}

func tokenize(s string) []string { return xmltree.Tokenize(s) }
