package ir

import "math"

// BM25Params are the free parameters of the Robertson–Walker BM25
// weighting scheme.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 is the conventional parameterization.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// idf computes the BM25 IDF with the +1 smoothing that keeps it
// positive for terms occurring in more than half the collection.
func (ix *Index) idf(term string) float64 {
	n := float64(ix.N())
	df := float64(ix.DF(term))
	if n == 0 || df == 0 {
		return 0
	}
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// weight is one term's BM25 contribution: idf times the saturated,
// length-normalized term frequency. Both scorers sum these in
// query-term order, so their results are bit-identical.
func (p BM25Params) weight(idf, tf, dl, avg float64) float64 {
	return idf * (tf * (p.K1 + 1)) / (tf + p.K1*(1-p.B+p.B*dl/avg))
}

// Scored is one document with its raw (unnormalized) score.
type Scored struct {
	Doc   DocKey
	Score float64
}

// PhraseBM25 scores every document containing the phrase contiguously,
// in ascending key order, with BM25 against the phrase's terms —
// BM25Docs on PhraseDocs(phrase). A single term walks its postings once
// and reads tf as the number of positions: O(DF).
func (ix *Index) PhraseBM25(p BM25Params, phrase []string) []Scored {
	if len(phrase) != 1 {
		return ix.BM25Docs(p, ix.PhraseDocs(phrase), phrase)
	}
	list := ix.postings[phrase[0]]
	if len(list) == 0 {
		return nil
	}
	out := make([]Scored, len(list))
	avg := ix.AvgDocLen()
	if avg == 0 {
		for i, pp := range list {
			out[i].Doc = pp.doc
		}
		return out
	}
	idf := ix.idf(phrase[0])
	for i, pp := range list {
		score := 0.0
		score += p.weight(idf, float64(len(pp.positions)), float64(ix.docLen[pp.doc]), avg)
		out[i] = Scored{Doc: pp.doc, Score: score}
	}
	return out
}

// BM25Docs scores the given documents, in the given order, with BM25
// against terms, reading each term's frequency off its positions (a
// binary search per term and document). Every document must have been
// added.
func (ix *Index) BM25Docs(p BM25Params, docs []DocKey, terms []string) []Scored {
	if len(docs) == 0 {
		return nil
	}
	out := make([]Scored, len(docs))
	avg := ix.AvgDocLen()
	if avg == 0 {
		for i, d := range docs {
			out[i].Doc = d
		}
		return out
	}
	idf := make([]float64, len(terms))
	for j, t := range terms {
		idf[j] = ix.idf(t)
	}
	for i, d := range docs {
		dl := float64(ix.docLen[d])
		score := 0.0
		for j, t := range terms {
			tf := float64(len(ix.positionsIn(t, d)))
			if tf == 0 {
				continue
			}
			score += p.weight(idf[j], tf, dl, avg)
		}
		out[i] = Scored{Doc: d, Score: score}
	}
	return out
}
