package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// refCorpus is a collection as raw token lists by document key: the
// reference the index is held to reads these lists and nothing of the
// index.
type refCorpus map[DocKey][]string

// index adds the corpus to a fresh index, in ascending key order.
func (c refCorpus) index() *Index {
	ix := NewIndex()
	for k := DocKey(0); ix.N() < len(c); k++ {
		if toks, ok := c[k]; ok {
			ix.Add(k, toks)
		}
	}
	return ix
}

// stats counts the corpus's collection statistics off its token lists.
func (c refCorpus) stats() Stats {
	s := Stats{N: len(c), DF: map[string]int{}}
	for _, toks := range c {
		s.TotalLen += int64(len(toks))
		seen := map[string]bool{}
		for _, t := range toks {
			if !seen[t] {
				seen[t] = true
				s.DF[t]++
			}
		}
	}
	return s
}

// phraseDocs is every document whose token list holds the phrase
// contiguously, ascending.
func (c refCorpus) phraseDocs(phrase []string) []DocKey {
	var out []DocKey
	for k := DocKey(0); len(c) > 0 && k <= c.maxKey(); k++ {
		if toks, ok := c[k]; ok && bruteContains(toks, phrase) {
			out = append(out, k)
		}
	}
	return out
}

func (c refCorpus) maxKey() DocKey {
	m := DocKey(-1)
	for k := range c {
		m = max(m, k)
	}
	return m
}

// bm25 is the Robertson–Walker BM25 of doc against terms, written out
// from the formula over doc's token list under statistics s: term
// frequency counted in the list, length the list's length, IDF with
// the +1 smoothing, contributions summed in term order.
func (c refCorpus) bm25(p BM25Params, s StatsView, doc DocKey, terms []string) float64 {
	n := float64(s.StatsN())
	if n == 0 || s.StatsTotalLen() == 0 {
		return 0
	}
	avg := float64(s.StatsTotalLen()) / n
	dl := float64(len(c[doc]))
	score := 0.0
	for _, t := range terms {
		f := 0.0
		for _, tok := range c[doc] {
			if tok == t {
				f++
			}
		}
		if f == 0 {
			continue
		}
		idf := 0.0
		if df := float64(s.StatsDF(t)); df > 0 {
			idf = math.Log(1 + (n-df+0.5)/(df+0.5))
		}
		score += idf * (f * (p.K1 + 1)) / (f + p.K1*(1-p.B+p.B*dl/avg))
	}
	return score
}

// scored is the reference's answer for docs: each with its bm25.
func (c refCorpus) scored(p BM25Params, s StatsView, docs []DocKey, terms []string) []Scored {
	if len(docs) == 0 {
		return nil
	}
	out := make([]Scored, len(docs))
	for i, d := range docs {
		out[i] = Scored{Doc: d, Score: c.bm25(p, s, d, terms)}
	}
	return out
}

// checkScorers holds PhraseBM25 and BM25Docs bit-identical to the
// reference for one phrase under one view (nil: the corpus's own
// statistics): PhraseBM25 on the phrase's documents, BM25Docs on those
// and on every document.
func checkScorers(c refCorpus, view StatsView, phrase []string) error {
	ix := c.index()
	stats := view
	if view == nil {
		stats = c.stats()
	} else {
		ix = ix.Overlay(view)
	}
	p := DefaultBM25()
	docs := c.phraseDocs(phrase)
	want := c.scored(p, stats, docs, phrase)
	if got := ix.PhraseBM25(p, phrase); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("PhraseBM25(%q) = %v, reference %v", phrase, got, want)
	}
	if got := ix.BM25Docs(p, docs, phrase); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("BM25Docs(phrase docs, %q) = %v, reference %v", phrase, got, want)
	}
	var all []DocKey
	for k := DocKey(0); k <= c.maxKey(); k++ {
		if _, ok := c[k]; ok {
			all = append(all, k)
		}
	}
	if got, want := ix.BM25Docs(p, all, phrase), c.scored(p, stats, all, phrase); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("BM25Docs(all, %q) = %v, reference %v", phrase, got, want)
	}
	return nil
}

func fields(texts ...string) refCorpus {
	c := refCorpus{}
	for i, t := range texts {
		c[DocKey(i)] = strings.Fields(t)
	}
	return c
}

// Both scorers equal the reference bit for bit on a single term, a
// multi-term phrase, repeated tokens, zero-token documents and a
// statistics overlay.
func TestPhraseBM25MatchesReference(t *testing.T) {
	c := fields(
		"bronchial structure of the lung",
		"",
		"asthma asthma asthma bronchial structure bronchial structure",
		"structure bronchial asthma",
		"",
		"lung",
	)
	overlay := c.stats()
	overlay.N += 40
	overlay.TotalLen += 300
	overlay.DF["asthma"] += 9
	cases := []struct {
		name   string
		phrase string
		view   StatsView
	}{
		{"single term", "lung", nil},
		{"multi-term phrase", "bronchial structure", nil},
		{"repeated tokens", "asthma", nil},
		{"repeated tokens in a phrase", "asthma asthma", nil},
		{"zero-token elements", "structure", nil},
		{"absent term", "cardiac", nil},
		{"overlay single term", "asthma", overlay},
		{"overlay phrase", "asthma bronchial structure", overlay},
		{"overlay counting no documents", "lung", Stats{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkScorers(c, tc.view, strings.Fields(tc.phrase)); err != nil {
				t.Error(err)
			}
		})
	}
	if ix := c.index(); len(ix.PhraseBM25(DefaultBM25(), []string{"asthma"})) != 2 || len(ix.PhraseDocs([]string{"bronchial", "structure"})) != 2 {
		t.Error("fixture lost its repeats")
	}
}

// randomCorpus draws a small corpus over a five-word vocabulary, with
// zero-token documents, repeated tokens and, sometimes, sparse keys.
func randomCorpus(r *rand.Rand) refCorpus {
	words := []string{"a", "b", "c", "d", "e"}
	c := refCorpus{}
	key := DocKey(r.Intn(3))
	for d := 0; d < 1+r.Intn(30); d++ {
		toks := make([]string, r.Intn(10))
		for i := range toks {
			toks[i] = words[r.Intn(len(words))]
		}
		c[key] = toks
		key += 1 + DocKey(r.Intn(2))
	}
	return c
}

// Property: PhraseBM25 and BM25Docs equal the reference BM25 over raw
// token lists, bit for bit, with and without a statistics overlay, for
// single terms and phrases, repeated terms included.
func TestQuickPhraseBM25MatchesBM25(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCorpus(r)
		var view StatsView
		if r.Intn(2) == 0 {
			s := c.stats()
			s.N += r.Intn(50)
			s.TotalLen += int64(r.Intn(200))
			s.DF["a"] += r.Intn(5)
			view = s
		}
		phrase := make([]string, 1+r.Intn(3))
		for i := range phrase {
			phrase[i] = words[r.Intn(len(words))]
		}
		if err := checkScorers(c, view, phrase); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LocalStats — N, TotalLen and every DF — equals the counts
// taken from the token lists, zero-token documents and repeated tokens
// included, whatever overlay the index carries.
func TestLocalStatsMatchesTokenCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCorpus(r)
		want := c.stats()
		ix := c.index()
		if !reflect.DeepEqual(ix.LocalStats(), want) {
			t.Logf("LocalStats = %+v, counted %+v", ix.LocalStats(), want)
			return false
		}
		if ix.N() != want.N {
			return false
		}
		for term, df := range want.DF {
			if ix.DF(term) != df {
				t.Logf("DF(%q) = %d, counted %d", term, ix.DF(term), df)
				return false
			}
		}
		return reflect.DeepEqual(ix.Overlay(Stats{N: 7, TotalLen: 9}).LocalStats(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
