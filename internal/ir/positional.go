package ir

import "sort"

// Positional is a positional inverted index: for every term it records
// the token offsets of each occurrence per document. It answers phrase
// containment exactly from the index — no re-tokenization of the source
// — which both speeds up multi-word keywords and guarantees the phrase
// test sees precisely the tokens that were indexed.
type Positional struct {
	postings map[string][]PosPosting
	docs     int
	// slab is the backing store a new posting's first position is carved
	// from (capacity one, so a second occurrence in the document moves
	// the posting's positions out): one allocation per slabSize postings
	// instead of one per posting.
	slab []int32
}

const slabSize = 1024

// PosPosting records one document's occurrence positions for a term,
// ascending.
type PosPosting struct {
	Doc       DocKey
	Positions []int32
}

// NewPositional returns an empty index.
func NewPositional() *Positional {
	return &Positional{postings: make(map[string][]PosPosting)}
}

// Add indexes a document's token sequence. Documents must be added
// once each, in ascending key order (posting lists are kept Doc-sorted
// by construction; a violation panics rather than corrupting binary
// searches silently). The index builder satisfies this by assigning
// dense sequential keys.
func (px *Positional) Add(doc DocKey, tokens []string) {
	px.docs++
	for pos, t := range tokens {
		list := px.postings[t]
		n := len(list)
		if n > 0 && list[n-1].Doc == doc {
			list[n-1].Positions = append(list[n-1].Positions, int32(pos))
			continue
		}
		if n > 0 && list[n-1].Doc > doc {
			panic("ir: Positional.Add called with out-of-order document key")
		}
		if len(px.slab) == cap(px.slab) {
			px.slab = make([]int32, 0, slabSize)
		}
		i := len(px.slab)
		px.slab = append(px.slab, int32(pos))
		px.postings[t] = append(list, PosPosting{Doc: doc, Positions: px.slab[i : i+1 : i+1]})
	}
}

// N is the number of indexed documents.
func (px *Positional) N() int { return px.docs }

// DF is the document frequency of a term.
func (px *Positional) DF(term string) int { return len(px.postings[term]) }

// positionsIn returns the term's positions in doc (nil if absent).
func (px *Positional) positionsIn(term string, doc DocKey) []int32 {
	list := px.postings[term]
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= doc })
	if i < len(list) && list[i].Doc == doc {
		return list[i].Positions
	}
	return nil
}

// ContainsPhrase reports whether doc contains the tokens contiguously.
func (px *Positional) ContainsPhrase(doc DocKey, phrase []string) bool {
	return px.PhraseCount(doc, phrase) > 0
}

// PhraseCount counts the contiguous occurrences of the phrase in doc.
func (px *Positional) PhraseCount(doc DocKey, phrase []string) int {
	if len(phrase) == 0 {
		return 0
	}
	starts := px.positionsIn(phrase[0], doc)
	if starts == nil {
		return 0
	}
	count := 0
	for _, s := range starts {
		ok := true
		for j := 1; j < len(phrase); j++ {
			if !containsPos(px.positionsIn(phrase[j], doc), s+int32(j)) {
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
func (px *Positional) PhraseDocs(phrase []string) []DocKey {
	if len(phrase) == 0 {
		return nil
	}
	// Iterate the rarest term's postings.
	rarest := phrase[0]
	for _, t := range phrase[1:] {
		if px.DF(t) < px.DF(rarest) {
			rarest = t
		}
	}
	var out []DocKey
	for _, p := range px.postings[rarest] {
		if len(phrase) == 1 || px.ContainsPhrase(p.Doc, phrase) {
			out = append(out, p.Doc)
		}
	}
	return out
}
