// Package ir implements the information-retrieval substrate of
// XOntoRank: one positional inverted index over small "documents"
// (individual XML elements, or ontology concepts viewed as documents)
// and BM25 scoring read off its positions. The paper uses BM25
// (Robertson-Walker) as its IRS function; callers normalize the raw
// scores to [0, 1] per keyword, as Section III requires. The index
// answers phrase containment exactly from its positions — no
// re-tokenization of the source — so the phrase test sees precisely
// the tokens that were indexed.
package ir

import "sort"

// DocKey identifies one scored unit. XOntoRank views every XML element
// as a document (keyed by a dense element ordinal) and, separately,
// every ontology concept as a document (keyed by its concept ID, which
// numbers the concepts from 1). Keys are small non-negative integers:
// an Index tabulates document lengths densely by key.
type DocKey int64

// Index is an in-memory positional inverted index with the collection
// statistics BM25 needs (document frequencies, document lengths,
// average length). The postings live in a table that every Overlay of
// the index shares; the statistics overlay is per Index value.
type Index struct {
	*table

	// global, when non-nil, overlays collection-wide statistics on a
	// partition-local index so BM25 scores match the unsharded corpus
	// exactly (see SetGlobalStats in stats.go).
	global StatsView
}

// table is the indexed data proper.
type table struct {
	postings map[string][]posting // per term, in ascending key order
	docLen   []int32              // DocKey -> token length; -1 for a key never added
	docs     int                  // keys added
	totalLen int64
	// slab is the backing store a new posting's first position is carved
	// from (capacity one, so a second occurrence in the document moves
	// the posting's positions out): one allocation per slabSize postings
	// instead of one per posting.
	slab []int32
}

const slabSize = 1024

// posting records one document's occurrence positions of a term,
// ascending; their count is the term frequency.
type posting struct {
	doc       DocKey
	positions []int32
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{table: &table{postings: make(map[string][]posting)}}
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

// Add indexes a document's token sequence. Documents are added once
// each, in ascending key order, which keeps every posting list sorted
// by construction; a repeated or out-of-order key panics rather than
// corrupting the binary searches silently. Document lengths are
// tabulated densely by key, so the table spans the largest key added.
func (ix *Index) Add(doc DocKey, tokens []string) {
	if doc < DocKey(len(ix.docLen)) {
		panic("ir: Index.Add called with a repeated or out-of-order document key")
	}
	for DocKey(len(ix.docLen)) < doc {
		ix.docLen = append(ix.docLen, -1)
	}
	ix.docLen = append(ix.docLen, int32(len(tokens)))
	ix.docs++
	ix.totalLen += int64(len(tokens))
	for pos, t := range tokens {
		list := ix.postings[t]
		if n := len(list); n > 0 && list[n-1].doc == doc {
			list[n-1].positions = append(list[n-1].positions, int32(pos))
			continue
		}
		if len(ix.slab) == cap(ix.slab) {
			ix.slab = make([]int32, 0, slabSize)
		}
		i := len(ix.slab)
		ix.slab = append(ix.slab, int32(pos))
		ix.postings[t] = append(list, posting{doc: doc, positions: ix.slab[i : i+1 : i+1]})
	}
}

// N is the number of indexed documents (collection-global when a stats
// overlay is installed).
func (ix *Index) N() int {
	if ix.global != nil {
		return ix.global.StatsN()
	}
	return ix.docs
}

// DF is the document frequency of a term (collection-global when a
// stats overlay is installed).
func (ix *Index) DF(term string) int {
	if ix.global != nil {
		return ix.global.StatsDF(term)
	}
	return len(ix.postings[term])
}

// AvgDocLen is the mean document length of the collection
// (collection-global when a stats overlay is installed).
func (ix *Index) AvgDocLen() float64 {
	n, total := ix.docs, ix.totalLen
	if ix.global != nil {
		n, total = ix.global.StatsN(), ix.global.StatsTotalLen()
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// positionsIn returns the term's positions in doc (nil if absent).
func (ix *Index) positionsIn(term string, doc DocKey) []int32 {
	list := ix.postings[term]
	i := sort.Search(len(list), func(i int) bool { return list[i].doc >= doc })
	if i < len(list) && list[i].doc == doc {
		return list[i].positions
	}
	return nil
}

// ContainsPhrase reports whether doc contains the tokens contiguously.
func (ix *Index) ContainsPhrase(doc DocKey, phrase []string) bool {
	return ix.PhraseCount(doc, phrase) > 0
}

// PhraseCount counts the contiguous occurrences of the phrase in doc.
func (ix *Index) PhraseCount(doc DocKey, phrase []string) int {
	if len(phrase) == 0 {
		return 0
	}
	count := 0
	for _, s := range ix.positionsIn(phrase[0], doc) {
		ok := true
		for j := 1; j < len(phrase); j++ {
			if !containsPos(ix.positionsIn(phrase[j], doc), s+int32(j)) {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func containsPos(positions []int32, want int32) bool {
	i := sort.Search(len(positions), func(i int) bool { return positions[i] >= want })
	return i < len(positions) && positions[i] == want
}

// PhraseDocs returns the documents containing the phrase, sorted (the
// rarest term's postings are, by construction). For a single-token
// phrase this is the term's posting documents.
func (ix *Index) PhraseDocs(phrase []string) []DocKey {
	if len(phrase) == 0 {
		return nil
	}
	// Iterate the rarest term's postings.
	rarest := ix.postings[phrase[0]]
	for _, t := range phrase[1:] {
		if l := ix.postings[t]; len(l) < len(rarest) {
			rarest = l
		}
	}
	var out []DocKey
	for _, p := range rarest {
		if len(phrase) == 1 || ix.ContainsPhrase(p.doc, phrase) {
			out = append(out, p.doc)
		}
	}
	return out
}
