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

func TestIndexStats(t *testing.T) {
	ix := buildIndex()
	if ix.N() != 4 {
		t.Errorf("N=%d", ix.N())
	}
	if ix.DF("asthma") != 2 {
		t.Errorf("DF(asthma)=%d", ix.DF("asthma"))
	}
	if ix.TF("asthma", 1) != 2 {
		t.Errorf("TF(asthma,1)=%d", ix.TF("asthma", 1))
	}
	if ix.TF("asthma", 3) != 0 {
		t.Errorf("TF(asthma,3)=%d", ix.TF("asthma", 3))
	}
	if ix.DocLen(1) != 4 {
		t.Errorf("DocLen(1)=%d", ix.DocLen(1))
	}
	want := float64(4+2+4+2) / 4
	if got := ix.AvgDocLen(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgDocLen=%f want %f", got, want)
	}
}

func TestIndexAddAccumulates(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, []string{"a", "b"})
	ix.Add(1, []string{"a"})
	if ix.TF("a", 1) != 2 {
		t.Errorf("TF after second Add = %d", ix.TF("a", 1))
	}
	if ix.N() != 1 {
		t.Errorf("N=%d after re-adding same doc", ix.N())
	}
	if ix.DocLen(1) != 3 {
		t.Errorf("DocLen=%d", ix.DocLen(1))
	}
	// Empty token list still registers the document.
	ix.Add(2, nil)
	if ix.N() != 2 {
		t.Errorf("empty doc not registered: N=%d", ix.N())
	}
}

// A second Add of a key extends the first. Every sequence below must
// leave the index exactly as if each key had been added once with its
// token lists concatenated — which takes only the new-key path of Add,
// while the sequences with repeats take the repeated-key path too.
func TestIndexReAddSemantics(t *testing.T) {
	type add struct {
		doc    DocKey
		tokens []string
	}
	cases := []struct {
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := NewIndex(), NewIndex()
			var order []DocKey
			merged := map[DocKey][]string{}
			for _, a := range tc.adds {
				got.Add(a.doc, a.tokens)
				if _, seen := merged[a.doc]; !seen {
					order = append(order, a.doc)
				}
				merged[a.doc] = append(merged[a.doc], a.tokens...)
			}
			for _, doc := range order {
				want.Add(doc, merged[doc])
			}
			if got.N() != want.N() || got.N() != len(order) {
				t.Errorf("N = %d, want %d", got.N(), want.N())
			}
			if got.AvgDocLen() != want.AvgDocLen() {
				t.Errorf("AvgDocLen = %v, want %v (total length double-counted?)", got.AvgDocLen(), want.AvgDocLen())
			}
			if !reflect.DeepEqual(got.LocalStats(), want.LocalStats()) {
				t.Errorf("LocalStats = %+v, want %+v", got.LocalStats(), want.LocalStats())
			}
			if !reflect.DeepEqual(got.Vocabulary(), want.Vocabulary()) {
				t.Fatalf("Vocabulary = %v, want %v", got.Vocabulary(), want.Vocabulary())
			}
			for _, term := range want.Vocabulary() {
				if !reflect.DeepEqual(got.Postings(term), want.Postings(term)) {
					t.Errorf("Postings(%q) = %v, want %v", term, got.Postings(term), want.Postings(term))
				}
			}
			for _, doc := range order {
				if got.DocLen(doc) != want.DocLen(doc) {
					t.Errorf("DocLen(%d) = %d, want %d", doc, got.DocLen(doc), want.DocLen(doc))
				}
			}
		})
	}
}

// An Overlay shares the postings and keeps its statistics to itself.
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
	if a.TF("asthma", 99) != 2 || b.DocLen(99) != 2 {
		t.Error("an Add through the base is not visible through its overlays")
	}
	if a.LocalStats().N != localN+1 {
		t.Errorf("overlay LocalStats().N = %d, want %d", a.LocalStats().N, localN+1)
	}
}

func TestPostingsSortedCopy(t *testing.T) {
	ix := NewIndex()
	ix.Add(5, []string{"x"})
	ix.Add(2, []string{"x"})
	ix.Add(9, []string{"x"})
	p := ix.Postings("x")
	if len(p) != 3 || p[0].Doc != 2 || p[1].Doc != 5 || p[2].Doc != 9 {
		t.Errorf("postings = %v", p)
	}
	p[0].TF = 99
	if ix.TF("x", 2) != 1 {
		t.Error("Postings returned shared storage")
	}
	if got := ix.Postings("absent"); len(got) != 0 {
		t.Errorf("postings of absent term = %v", got)
	}
}

func TestVocabulary(t *testing.T) {
	ix := buildIndex()
	v := ix.Vocabulary()
	for i := 1; i < len(v); i++ {
		if v[i-1] >= v[i] {
			t.Fatal("vocabulary not sorted/unique")
		}
	}
	if len(v) == 0 {
		t.Fatal("empty vocabulary")
	}
}

func TestDocsContainingAll(t *testing.T) {
	ix := buildIndex()
	got := ix.DocsContainingAll([]string{"asthma"})
	if !reflect.DeepEqual(got, []DocKey{1, 4}) {
		t.Errorf("got %v", got)
	}
	got = ix.DocsContainingAll([]string{"asthma", "theophylline"})
	if !reflect.DeepEqual(got, []DocKey{1}) {
		t.Errorf("got %v", got)
	}
	if got := ix.DocsContainingAll([]string{"asthma", "cardiac"}); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	if got := ix.DocsContainingAll(nil); got != nil {
		t.Errorf("got %v", got)
	}
}

func TestBM25Basics(t *testing.T) {
	ix := buildIndex()
	p := DefaultBM25()
	s1 := ix.BM25(p, 1, []string{"asthma"})
	s4 := ix.BM25(p, 4, []string{"asthma"})
	if s1 <= 0 || s4 <= 0 {
		t.Fatalf("containing docs must score > 0: %f %f", s1, s4)
	}
	if ix.BM25(p, 3, []string{"asthma"}) != 0 {
		t.Error("non-containing doc must score 0")
	}
	// Doc 4 is shorter with same tf-ish weight; doc 1 has tf=2. BM25 with
	// these lengths: both positive, and higher tf should win here.
	if s1 <= s4*0.5 {
		t.Errorf("tf=2 score %f unexpectedly small vs %f", s1, s4)
	}
	// Rare terms outweigh common ones.
	sRare := ix.BM25(p, 3, []string{"epinephrine"})
	sCommon := ix.BM25(p, 1, []string{"asthma"})
	if sRare <= sCommon {
		t.Errorf("rare term %f should outscore common %f", sRare, sCommon)
	}
}

func TestBM25AllMatchesPointwise(t *testing.T) {
	ix := buildIndex()
	p := DefaultBM25()
	terms := []string{"asthma", "albuterol"}
	all := ix.BM25All(p, terms)
	for doc := DocKey(1); doc <= 4; doc++ {
		want := ix.BM25(p, doc, terms)
		got := all[doc]
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("doc %d: BM25All=%f BM25=%f", doc, got, want)
		}
	}
}

func TestNormalizedBM25(t *testing.T) {
	ix := buildIndex()
	p := DefaultBM25()
	norm := ix.NormalizedBM25(p, []string{"asthma"})
	max := 0.0
	for _, s := range norm {
		if s < 0 || s > 1 {
			t.Fatalf("normalized score %f out of range", s)
		}
		if s > max {
			max = s
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Errorf("max normalized score = %f, want 1", max)
	}
	if len(norm) != 2 {
		t.Errorf("normalized map size = %d", len(norm))
	}
	// Unknown term: empty map, no panic.
	if got := ix.NormalizedBM25(p, []string{"zzz"}); len(got) != 0 {
		t.Errorf("unknown term scores = %v", got)
	}
}

func TestTFIDF(t *testing.T) {
	ix := buildIndex()
	if ix.TFIDF(3, []string{"asthma"}) != 0 {
		t.Error("non-containing doc should be 0")
	}
	if ix.TFIDF(1, []string{"theophylline"}) <= 0 {
		t.Error("containing doc should be positive")
	}
}

func TestEmptyIndexSafe(t *testing.T) {
	ix := NewIndex()
	p := DefaultBM25()
	if ix.BM25(p, 1, []string{"x"}) != 0 {
		t.Error("empty index BM25 should be 0")
	}
	if got := ix.BM25All(p, []string{"x"}); len(got) != 0 {
		t.Error("empty index BM25All should be empty")
	}
	if ix.AvgDocLen() != 0 {
		t.Error("empty index AvgDocLen should be 0")
	}
}

// Property: normalized scores are always within [0,1] and the max over
// a non-empty result set is exactly 1.
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
		term := words[r.Intn(len(words))]
		norm := ix.NormalizedBM25(DefaultBM25(), []string{term})
		max := 0.0
		for _, s := range norm {
			if s < 0 || s > 1+1e-12 {
				return false
			}
			if s > max {
				max = s
			}
		}
		return len(norm) == 0 || math.Abs(max-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding an unrelated document never decreases another
// document's TF, and DF is monotone in containment.
func TestQuickIndexMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		ix.Add(1, []string{"stable", "term"})
		before := ix.TF("stable", 1)
		for d := 2; d < 2+r.Intn(10); d++ {
			ix.Add(DocKey(d), []string{"noise"})
		}
		return ix.TF("stable", 1) == before && ix.DF("stable") == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
