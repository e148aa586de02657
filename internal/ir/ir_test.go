package ir

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func buildIndex() *Index {
	ix := NewIndex()
	ix.Add(1, xmltree.Tokenize("asthma bronchial asthma theophylline"))
	ix.Add(2, xmltree.Tokenize("bronchitis albuterol"))
	ix.Add(3, xmltree.Tokenize("cardiac arrest epinephrine resuscitation"))
	ix.Add(4, xmltree.Tokenize("asthma attack"))
	return ix
}

// tf is a term's frequency in doc, read off its positions.
func tf(ix *Index, term string, doc DocKey) int { return len(ix.positionsIn(term, doc)) }

// docLen is doc's token length (0 when it was never added).
func docLen(ix *Index, doc DocKey) int {
	if doc < 0 || doc >= DocKey(len(ix.docLen)) || ix.docLen[doc] < 0 {
		return 0
	}
	return int(ix.docLen[doc])
}

func TestIndexStats(t *testing.T) {
	ix := buildIndex()
	if ix.N() != 4 {
		t.Errorf("N=%d", ix.N())
	}
	if ix.DF("asthma") != 2 {
		t.Errorf("DF(asthma)=%d", ix.DF("asthma"))
	}
	if tf(ix, "asthma", 1) != 2 {
		t.Errorf("tf(asthma,1)=%d", tf(ix, "asthma", 1))
	}
	if tf(ix, "asthma", 3) != 0 {
		t.Errorf("tf(asthma,3)=%d", tf(ix, "asthma", 3))
	}
	if docLen(ix, 1) != 4 {
		t.Errorf("docLen(1)=%d", docLen(ix, 1))
	}
	want := float64(4+2+4+2) / 4
	if got := ix.AvgDocLen(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgDocLen=%f want %f", got, want)
	}
	// An empty token list still registers the document.
	ix.Add(5, nil)
	if ix.N() != 5 || ix.AvgDocLen() != float64(12)/5 {
		t.Errorf("empty doc not registered: N=%d avg=%v", ix.N(), ix.AvgDocLen())
	}
}

// add is one Add call of a test case.
type add struct {
	doc    DocKey
	tokens []string
}

var reAddCases = []struct {
	name string
	adds []add
}{
	{"no repeat", []add{{1, []string{"a", "b", "a"}}, {2, []string{"b"}}}},
	{"adjacent repeat", []add{{1, []string{"a", "b"}}, {1, []string{"a", "c"}}, {2, []string{"a"}}}},
	{"non-adjacent repeat", []add{{1, []string{"a", "b"}}, {2, []string{"a", "b", "b"}}, {1, []string{"b", "c"}}}},
	{"empty then tokens", []add{{1, nil}, {2, []string{"a"}}, {1, []string{"a", "a"}}}},
	{"tokens then empty", []add{{1, []string{"a"}}, {1, nil}, {2, nil}, {2, nil}}},
	{"repeat after many", []add{{1, []string{"x"}}, {2, []string{"x"}}, {3, []string{"x"}}, {2, []string{"x", "y"}}, {3, []string{"y"}}, {1, []string{"x"}}}},
}

// onceEach is the once-per-key, ascending form of an Add sequence: each
// key's token lists concatenated in the order they were given.
func onceEach(adds []add) []add {
	merged := map[DocKey][]string{}
	var keys []DocKey
	for _, a := range adds {
		if _, seen := merged[a.doc]; !seen {
			keys = append(keys, a.doc)
		}
		merged[a.doc] = append(merged[a.doc], a.tokens...)
	}
	out := make([]add, 0, len(keys))
	for k := DocKey(0); len(out) < len(keys); k++ {
		if toks, ok := merged[k]; ok {
			out = append(out, add{k, toks})
		}
	}
	return out
}

// A key is added once: the Add that repeats one panics, and leaves the
// index exactly as the Adds before it built it.
func TestIndexReAddSemantics(t *testing.T) {
	for _, tc := range reAddCases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewIndex()
			seen := map[DocKey]bool{}
			var before []add
			for _, a := range tc.adds {
				if !seen[a.doc] {
					seen[a.doc] = true
					got.Add(a.doc, a.tokens)
					before = append(before, a)
					continue
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("a second Add of key %d did not panic", a.doc)
						}
					}()
					got.Add(a.doc, a.tokens)
				}()
				break
			}
			want := NewIndex()
			for _, a := range before {
				want.Add(a.doc, a.tokens)
			}
			if !reflect.DeepEqual(got.LocalStats(), want.LocalStats()) || !reflect.DeepEqual(got.docLen, want.docLen) {
				t.Errorf("after the refused Add: %+v, want %+v", got.LocalStats(), want.LocalStats())
			}
		})
	}
}

// mapLengths is the map-keyed length table the dense one replaced, kept
// as the reference the dense table must answer exactly as.
type mapLengths struct {
	docLen   map[DocKey]int
	totalLen int64
}

func (m *mapLengths) add(doc DocKey, tokens []string) {
	m.docLen[doc] += len(tokens)
	m.totalLen += int64(len(tokens))
}

func (m *mapLengths) avg() float64 {
	if len(m.docLen) == 0 {
		return 0
	}
	return float64(m.totalLen) / float64(len(m.docLen))
}

// The dense length table answers document lengths, N, AvgDocLen and
// LocalStats exactly as the map did — for dense element keys from 0,
// for concept IDs numbered from 1, for sparse keys, and for the
// once-per-key form of every re-add sequence — and an overlay still
// answers N and AvgDocLen from its view while lengths stay local.
func TestDenseLengthsMatchMap(t *testing.T) {
	words := []string{"a", "b", "c"}
	seqs := map[string][]add{}
	for _, tc := range reAddCases {
		seqs["re-add/"+tc.name] = onceEach(tc.adds)
	}
	r := rand.New(rand.NewSource(1))
	for name, first := range map[string]DocKey{"element keys": 0, "concept ids": 1} {
		var adds []add
		for k := first; k < first+200; k++ {
			toks := make([]string, r.Intn(6))
			for i := range toks {
				toks[i] = words[r.Intn(len(words))]
			}
			adds = append(adds, add{k, toks})
		}
		seqs[name] = adds
	}
	seqs["sparse keys"] = []add{{3, nil}, {7, []string{"a"}}, {40, []string{"b", "b"}}}
	for name, adds := range seqs {
		t.Run(name, func(t *testing.T) {
			got, want := NewIndex(), &mapLengths{docLen: map[DocKey]int{}}
			maxKey := DocKey(0)
			for _, a := range adds {
				got.Add(a.doc, a.tokens)
				want.add(a.doc, a.tokens)
				maxKey = max(maxKey, a.doc)
				if got.N() != len(want.docLen) || got.AvgDocLen() != want.avg() {
					t.Fatalf("after Add(%d): N=%d avg=%v, want %d, %v", a.doc, got.N(), got.AvgDocLen(), len(want.docLen), want.avg())
				}
			}
			for doc := DocKey(-1); doc <= maxKey+2; doc++ {
				if docLen(got, doc) != want.docLen[doc] {
					t.Errorf("docLen(%d) = %d, want %d", doc, docLen(got, doc), want.docLen[doc])
				}
			}
			s := got.LocalStats()
			if s.N != len(want.docLen) || s.TotalLen != want.totalLen {
				t.Errorf("LocalStats N=%d TotalLen=%d, want %d, %d", s.N, s.TotalLen, len(want.docLen), want.totalLen)
			}
			ov := got.Overlay(Stats{N: 1000, TotalLen: 3000})
			if ov.N() != 1000 || ov.AvgDocLen() != 3 || docLen(ov, maxKey) != want.docLen[maxKey] || ov.LocalStats().N != len(want.docLen) {
				t.Errorf("overlay: N=%d avg=%v docLen=%d LocalStats.N=%d", ov.N(), ov.AvgDocLen(), docLen(ov, maxKey), ov.LocalStats().N)
			}
		})
	}
}

// An Overlay shares the postings and keeps its statistics to itself;
// setting nil removes an overlay.
func TestOverlayIsolatesStatistics(t *testing.T) {
	base := buildIndex()
	a, b := base.Overlay(nil), base.Overlay(Stats{N: 100, TotalLen: 1000, DF: map[string]int{"asthma": 7}})
	localN, localAvg, localDF := base.N(), base.AvgDocLen(), base.DF("asthma")
	a.SetGlobalStats(Stats{N: 50, TotalLen: 100, DF: map[string]int{"asthma": 3}})
	if base.N() != localN || base.AvgDocLen() != localAvg || base.DF("asthma") != localDF {
		t.Errorf("an overlay's statistics leaked into its base: N=%d avg=%v", base.N(), base.AvgDocLen())
	}
	if a.N() != 50 || a.DF("asthma") != 3 || a.AvgDocLen() != 2 {
		t.Errorf("a: N=%d DF=%d avg=%v", a.N(), a.DF("asthma"), a.AvgDocLen())
	}
	if b.N() != 100 || b.DF("asthma") != 7 || b.AvgDocLen() != 10 {
		t.Errorf("b: N=%d DF=%d avg=%v", b.N(), b.DF("asthma"), b.AvgDocLen())
	}
	base.Add(99, []string{"asthma", "asthma"})
	if tf(a, "asthma", 99) != 2 || docLen(b, 99) != 2 {
		t.Error("an Add through the base is not visible through its overlays")
	}
	if a.LocalStats().N != localN+1 {
		t.Errorf("overlay LocalStats().N = %d, want %d", a.LocalStats().N, localN+1)
	}
	b.SetGlobalStats(nil)
	if b.N() != base.N() || b.DF("asthma") != base.DF("asthma") || b.AvgDocLen() != base.AvgDocLen() {
		t.Errorf("nil left an overlay installed: N=%d DF=%d", b.N(), b.DF("asthma"))
	}
}

// scoreOf is doc's score in a scorer's output (0 when absent).
func scoreOf(scored []Scored, doc DocKey) float64 {
	for _, sd := range scored {
		if sd.Doc == doc {
			return sd.Score
		}
	}
	return 0
}

func TestBM25Basics(t *testing.T) {
	ix := buildIndex()
	p := DefaultBM25()
	asthma := ix.PhraseBM25(p, []string{"asthma"})
	s1, s4 := scoreOf(asthma, 1), scoreOf(asthma, 4)
	if s1 <= 0 || s4 <= 0 {
		t.Fatalf("containing docs must score > 0: %f %f", s1, s4)
	}
	if len(asthma) != 2 || ix.BM25Docs(p, []DocKey{3}, []string{"asthma"})[0].Score != 0 {
		t.Error("non-containing doc must score 0")
	}
	// Doc 4 is shorter with same tf-ish weight; doc 1 has tf=2. BM25 with
	// these lengths: both positive, and higher tf should win here.
	if s1 <= s4*0.5 {
		t.Errorf("tf=2 score %f unexpectedly small vs %f", s1, s4)
	}
	// Rare terms outweigh common ones.
	if sRare := scoreOf(ix.PhraseBM25(p, []string{"epinephrine"}), 3); sRare <= s1 {
		t.Errorf("rare term %f should outscore common %f", sRare, s1)
	}
}

func TestEmptyIndexSafe(t *testing.T) {
	ix := NewIndex()
	p := DefaultBM25()
	if got := ix.PhraseBM25(p, []string{"x"}); got != nil {
		t.Errorf("empty index PhraseBM25 = %v", got)
	}
	if got := ix.PhraseBM25(p, []string{"x", "y"}); got != nil {
		t.Errorf("empty index phrase = %v", got)
	}
	if ix.AvgDocLen() != 0 || ix.N() != 0 || ix.DF("x") != 0 {
		t.Error("empty index statistics should be 0")
	}
	if s := ix.LocalStats(); s.N != 0 || s.TotalLen != 0 || len(s.DF) != 0 {
		t.Errorf("empty index LocalStats = %+v", s)
	}
}

// Property: raw BM25 scores are finite and non-negative, so the
// per-keyword normalization of Section III (divide by the maximum over
// the containing set) lands in [0, 1] with a maximum of exactly 1.
func TestQuickNormalizedRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
		nDocs := 1 + r.Intn(20)
		for d := 0; d < nDocs; d++ {
			var toks []string
			for j := 0; j < 1+r.Intn(10); j++ {
				toks = append(toks, words[r.Intn(len(words))])
			}
			ix.Add(DocKey(d), toks)
		}
		raw := ix.PhraseBM25(DefaultBM25(), []string{words[r.Intn(len(words))]})
		max := 0.0
		for _, sd := range raw {
			if sd.Score < 0 || math.IsNaN(sd.Score) || math.IsInf(sd.Score, 0) {
				return false
			}
			max = math.Max(max, sd.Score)
		}
		if len(raw) > 0 && max == 0 {
			return false // no positive maximum to normalize by
		}
		for _, sd := range raw {
			if s := sd.Score / max; s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding an unrelated document never changes another
// document's term frequency, and DF is monotone in containment.
func TestQuickIndexMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		ix.Add(1, []string{"stable", "term"})
		before := tf(ix, "stable", 1)
		for d := 2; d < 2+r.Intn(10); d++ {
			ix.Add(DocKey(d), []string{"noise"})
		}
		return tf(ix, "stable", 1) == before && ix.DF("stable") == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
