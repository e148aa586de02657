// Package ir implements the information-retrieval substrate of
// XOntoRank: a bag-of-words inverted index over small "documents"
// (individual XML elements, or ontology concepts viewed as documents)
// and the BM25 and TF-IDF scoring functions. The paper uses BM25
// (Robertson-Walker) as its IRS function; scores are normalized to
// [0, 1] per keyword, as Section III requires.
package ir

import (
	"slices"
	"sort"
)

// DocKey identifies one scored unit. XOntoRank views every XML element
// as a document (keyed by a dense element ordinal) and, separately,
// every ontology concept as a document (keyed by its concept ID).
type DocKey int64

// Posting records one document containing a term.
type Posting struct {
	Doc DocKey
	TF  int32
}

// Index is an in-memory inverted index with the collection statistics
// BM25 needs (document frequencies, document lengths, average length).
// The postings live in a table that every Overlay of the index shares;
// the statistics overlay is per Index value.
type Index struct {
	*table

	// global, when non-nil, overlays collection-wide statistics on a
	// partition-local index so BM25-family scores match the unsharded
	// corpus exactly (see SetGlobalStats / SetGlobalStatsView in
	// stats.go).
	global StatsView
}

// table is the indexed data proper.
type table struct {
	postings map[string][]Posting
	docLen   map[DocKey]int
	totalLen int64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{table: &table{
		postings: make(map[string][]Posting),
		docLen:   make(map[DocKey]int),
	}}
}

// Overlay returns an index over the same postings and document lengths
// as ix (shared, not copied: an Add through either is seen by both)
// that answers N, DF and AvgDocLen from v; nil means from the index
// itself. ix's own overlay is not inherited, and setting one on the
// result does not touch ix — this is how several scorers with
// different global statistics read one full-text stage.
func (ix *Index) Overlay(v StatsView) *Index {
	return &Index{table: ix.table, global: v}
}

// Add indexes a document as a bag of tokens. Callers normally add each
// document once; a second Add with the same key extends the first (its
// tokens accumulate into the same postings and length, and the document
// still counts once toward N and each term's DF).
func (ix *Index) Add(doc DocKey, tokens []string) {
	_, repeated := ix.docLen[doc]
	if len(tokens) == 0 {
		if !repeated {
			ix.docLen[doc] = 0
		}
		return
	}
	counts := make(map[string]int, len(tokens))
	for _, t := range tokens {
		counts[t]++
	}
	for t, c := range counts {
		list := ix.postings[t]
		// Only a key seen before can already have a posting in the list;
		// a new key appends without looking (the scan made bulk indexing
		// quadratic in the posting-list length).
		i := -1
		if repeated {
			i = slices.IndexFunc(list, func(p Posting) bool { return p.Doc == doc })
		}
		if i >= 0 {
			list[i].TF += int32(c)
		} else {
			ix.postings[t] = append(list, Posting{Doc: doc, TF: int32(c)})
		}
	}
	ix.docLen[doc] += len(tokens)
	ix.totalLen += int64(len(tokens))
}

// N is the number of indexed documents (collection-global when a stats
// overlay is installed).
func (ix *Index) N() int {
	if ix.global != nil {
		return ix.global.StatsN()
	}
	return len(ix.docLen)
}

// DF is the document frequency of a term (collection-global when a
// stats overlay is installed).
func (ix *Index) DF(term string) int {
	if ix.global != nil {
		return ix.global.StatsDF(term)
	}
	return len(ix.postings[term])
}

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(term string, doc DocKey) int {
	for _, p := range ix.postings[term] {
		if p.Doc == doc {
			return int(p.TF)
		}
	}
	return 0
}

// DocLen returns the token length of a document.
func (ix *Index) DocLen(doc DocKey) int { return ix.docLen[doc] }

// AvgDocLen is the mean document length of the collection
// (collection-global when a stats overlay is installed).
func (ix *Index) AvgDocLen() float64 {
	if ix.global != nil {
		n := ix.global.StatsN()
		if n == 0 {
			return 0
		}
		return float64(ix.global.StatsTotalLen()) / float64(n)
	}
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// Postings returns the postings of a term sorted by document key. The
// returned slice is a copy.
func (ix *Index) Postings(term string) []Posting {
	src := ix.postings[term]
	out := make([]Posting, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

// Vocabulary returns every indexed term, sorted.
func (ix *Index) Vocabulary() []string {
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DocsContainingAll returns the keys of documents containing every one
// of the terms, sorted. Used for conjunctive candidate generation
// before phrase verification.
func (ix *Index) DocsContainingAll(terms []string) []DocKey {
	if len(terms) == 0 {
		return nil
	}
	// Start from the rarest term to keep intersections small.
	rarest := terms[0]
	for _, t := range terms[1:] {
		if ix.DF(t) < ix.DF(rarest) {
			rarest = t
		}
	}
	var out []DocKey
	for _, p := range ix.postings[rarest] {
		all := true
		for _, t := range terms {
			if t == rarest {
				continue
			}
			if ix.TF(t, p.Doc) == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, p.Doc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
