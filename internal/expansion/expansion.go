// Package expansion implements a query-expansion baseline: instead of
// scoring ontological associations into the index (XOntoRank's
// approach), each query keyword is rewritten into a weighted set of
// ontologically related terms and the expanded query is answered by the
// plain XRANK machinery over textual matches only.
//
// The paper's Section VIII argues against this family for keyword
// queries: "query expansion is not appropriate, since it leads to
// non-minimal results — the same concept appears multiple times in a
// result". This package exists to make that comparison measurable (see
// the expansion experiment): the baseline's result subtrees are larger
// and its per-keyword posting volume higher for the same recall.
package expansion

import (
	"sort"

	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// WeightedTerm is one expansion term with its association weight.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// Params configure the expander.
type Params struct {
	// Strategy selects how related concepts are found (typically
	// Relationships, to match XOntoRank's reach).
	Strategy ontoscore.Strategy
	// MaxTerms bounds the number of expansion terms per keyword
	// (original keyword excluded).
	MaxTerms int
	// Onto parameterizes the OntoScore computation.
	Onto ontoscore.Params
	// Query parameterizes the merge (decay, default k).
	Query query.Params
}

// DefaultParams uses the Graph (neighborhood) strategy for term
// selection — the classic expansion approach of suggesting nearby
// concepts (QEEF/XXL style). The taxonomy-aware strategies are poor
// term selectors here: their unpenalized upward flow ranks bland
// ancestors ("Clinical finding", the ontology root) above the
// clinically related neighbors.
func DefaultParams() Params {
	return Params{
		Strategy: ontoscore.StrategyGraph,
		MaxTerms: 5,
		Onto:     ontoscore.DefaultParams(),
		Query:    query.DefaultParams(),
	}
}

// Engine answers queries by expansion over a corpus and ontology
// collection.
type Engine struct {
	params   Params
	baseline *dil.Builder // StrategyNone: textual postings only; its computers select the terms
	cache    map[string]dil.List
}

// New prepares an expansion engine.
func New(corpus *xmltree.Corpus, coll *ontology.Collection, params Params) *Engine {
	dilParams := dil.DefaultParams()
	dilParams.Onto = params.Onto
	return &Engine{
		params:   params,
		baseline: dil.NewMultiBuilder(corpus, coll, ontoscore.StrategyNone, dilParams),
		cache:    make(map[string]dil.List),
	}
}

// Expand computes the weighted expansion set of one keyword: the
// keyword itself (weight 1) plus the preferred terms of the most
// strongly associated concepts under the configured strategy.
func (e *Engine) Expand(keyword string) []WeightedTerm {
	out := []WeightedTerm{{Term: keyword, Weight: 1}}
	type cand struct {
		term   string
		weight float64
	}
	var cands []cand
	seen := map[string]bool{keyword: true}
	for _, ont := range e.baseline.Collection().Ontologies() {
		scores := e.baseline.Computer(ont.SystemID).Compute(e.params.Strategy, keyword)
		for id, w := range scores {
			con := ont.Concept(id)
			if con == nil || seen[con.Preferred] {
				continue
			}
			// Skip concepts that literally contain the keyword — their
			// terms add no reach beyond the original keyword.
			if containsToken(ont, id, keyword) {
				continue
			}
			seen[con.Preferred] = true
			cands = append(cands, cand{term: con.Preferred, weight: w})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].weight != cands[j].weight {
			return cands[i].weight > cands[j].weight
		}
		return cands[i].term < cands[j].term
	})
	for i, c := range cands {
		if i >= e.params.MaxTerms {
			break
		}
		out = append(out, WeightedTerm{Term: c.term, Weight: c.weight})
	}
	return out
}

func containsToken(ont *ontology.Ontology, id ontology.ConceptID, keyword string) bool {
	for _, cid := range ont.ConceptsContaining(keyword) {
		if cid == id {
			return true
		}
	}
	return false
}

// list assembles the expanded posting list of one keyword: the textual
// DILs of every expansion term, max-merged per node with scores scaled
// by the term weights.
func (e *Engine) list(keyword string) dil.List {
	if l, ok := e.cache[keyword]; ok {
		return l
	}
	merged := make(map[string]dil.Posting)
	for _, wt := range e.Expand(keyword) {
		for _, p := range e.baseline.BuildKeyword(wt.Term) {
			s := p.Score * wt.Weight
			key := p.ID.String()
			if prev, ok := merged[key]; !ok || s > prev.Score {
				merged[key] = dil.Posting{ID: p.ID, Score: s}
			}
		}
	}
	out := make(dil.List, 0, len(merged))
	for _, p := range merged {
		out = append(out, p)
	}
	out.Sort()
	e.cache[keyword] = out
	return out
}

// Search answers a keyword query by expansion, returning up to k
// results ranked by score (Dewey tie-break).
func (e *Engine) Search(keywords []query.Keyword, k int) []query.Result {
	if len(keywords) == 0 {
		return nil
	}
	if k <= 0 {
		k = e.params.Query.K
	}
	lists := make([]dil.List, len(keywords))
	for i, kw := range keywords {
		lists[i] = e.list(string(kw))
		if len(lists[i]) == 0 {
			return nil
		}
	}
	return query.RunLists(lists, e.params.Query.Decay, k)
}

// SearchQuery parses and answers a query string.
func (e *Engine) SearchQuery(q string, k int) []query.Result {
	return e.Search(query.ParseQuery(q), k)
}

// PostingVolume reports the total posting count the expanded query
// touches — the index-pressure metric of the comparison experiment.
func (e *Engine) PostingVolume(keywords []query.Keyword) int {
	n := 0
	for _, kw := range keywords {
		n += len(e.list(string(kw)))
	}
	return n
}
