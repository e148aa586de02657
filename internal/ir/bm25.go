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
// length-normalized term frequency. Every scorer of this package sums
// these in query-term order, so their results are bit-identical.
func (p BM25Params) weight(idf, tf, dl, avg float64) float64 {
	return idf * (tf * (p.K1 + 1)) / (tf + p.K1*(1-p.B+p.B*dl/avg))
}

// BM25 scores one document against a bag of query terms.
func (ix *Index) BM25(p BM25Params, doc DocKey, terms []string) float64 {
	dl := float64(ix.DocLen(doc))
	avg := ix.AvgDocLen()
	if avg == 0 {
		return 0
	}
	score := 0.0
	for _, t := range terms {
		tf := float64(ix.TF(t, doc))
		if tf == 0 {
			continue
		}
		score += p.weight(ix.idf(t), tf, dl, avg)
	}
	return score
}

// Scored is one document with its raw (unnormalized) score.
type Scored struct {
	Doc   DocKey
	Score float64
}

// PhraseBM25 scores every document of px containing the phrase
// contiguously, in ascending key order, with BM25 against the phrase's
// terms under ix's statistics — bit-identical to BM25 on each of
// px.PhraseDocs(phrase). Term frequencies come off px's positions, so
// ix and px must have indexed the same token streams. A single term
// walks its positional postings once and reads tf as the number of
// positions: O(DF), where BM25's per-document TF scan makes a keyword
// O(DF²).
func (ix *Index) PhraseBM25(p BM25Params, px *Positional, phrase []string) []Scored {
	if len(phrase) != 1 {
		return ix.BM25Positional(p, px, px.PhraseDocs(phrase), phrase)
	}
	list := px.postings[phrase[0]]
	if len(list) == 0 {
		return nil
	}
	out := make([]Scored, len(list))
	avg := ix.AvgDocLen()
	if avg == 0 {
		for i, pp := range list {
			out[i].Doc = pp.Doc
		}
		return out
	}
	idf := ix.idf(phrase[0])
	for i, pp := range list {
		score := 0.0
		score += p.weight(idf, float64(len(pp.Positions)), float64(ix.docLen[pp.Doc]), avg)
		out[i] = Scored{Doc: pp.Doc, Score: score}
	}
	return out
}

// BM25Positional scores the given documents, in the given order,
// against terms — bit-identical to BM25 on each — reading each term's
// frequency off px's positions (a binary search per term and document)
// instead of scanning ix's posting lists. ix and px must have indexed
// the same token streams.
func (ix *Index) BM25Positional(p BM25Params, px *Positional, docs []DocKey, terms []string) []Scored {
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
			tf := float64(len(px.positionsIn(t, d)))
			if tf == 0 {
				continue
			}
			score += p.weight(idf[j], tf, dl, avg)
		}
		out[i] = Scored{Doc: d, Score: score}
	}
	return out
}

// BM25All computes the BM25 score of every document containing at least
// one of the terms (conjunctive filtering is up to the caller).
func (ix *Index) BM25All(p BM25Params, terms []string) map[DocKey]float64 {
	out := make(map[DocKey]float64)
	avg := ix.AvgDocLen()
	if avg == 0 {
		return out
	}
	for _, t := range terms {
		idf := ix.idf(t)
		if idf == 0 {
			continue
		}
		for _, post := range ix.postings[t] {
			tf := float64(post.TF)
			dl := float64(ix.DocLen(post.Doc))
			out[post.Doc] += p.weight(idf, tf, dl, avg)
		}
	}
	return out
}

// NormalizedBM25 computes per-keyword normalized scores in [0, 1]: each
// containing document's BM25 score divided by the collection maximum for
// that term set. This is the normalization Section III requires of IRS.
// Documents not containing any term are absent from the map.
func (ix *Index) NormalizedBM25(p BM25Params, terms []string) map[DocKey]float64 {
	raw := ix.BM25All(p, terms)
	max := 0.0
	for _, s := range raw {
		if s > max {
			max = s
		}
	}
	if max == 0 {
		return raw
	}
	for k, s := range raw {
		raw[k] = s / max
	}
	return raw
}

// TFIDF scores one document with the classic lnc.ltc-style weighting
// (log tf times idf); provided as the alternative IRS function the
// paper's Section III allows ("popular IR functions [17], [19], [20]").
func (ix *Index) TFIDF(doc DocKey, terms []string) float64 {
	score := 0.0
	n := float64(ix.N())
	for _, t := range terms {
		tf := float64(ix.TF(t, doc))
		df := float64(ix.DF(t))
		if tf == 0 || df == 0 {
			continue
		}
		score += (1 + math.Log(tf)) * math.Log(n/df)
	}
	return score
}
