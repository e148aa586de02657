package ir

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func buildPhraseIndex() *Index {
	px := NewIndex()
	px.Add(1, strings.Fields("bronchial structure of the lung"))
	px.Add(2, strings.Fields("structure bronchial"))
	px.Add(3, strings.Fields("bronchial bronchial structure structure"))
	px.Add(4, strings.Fields("unrelated words only"))
	return px
}

func TestPhraseContainment(t *testing.T) {
	px := buildPhraseIndex()
	cases := []struct {
		doc    DocKey
		phrase string
		want   bool
	}{
		{1, "bronchial structure", true},
		{2, "bronchial structure", false}, // reversed order
		{3, "bronchial structure", true},  // overlapping repeats
		{4, "bronchial structure", false},
		{1, "structure of the lung", true},
		{1, "of the lungs", false},
		{1, "bronchial", true},
	}
	for _, c := range cases {
		if got := px.ContainsPhrase(c.doc, strings.Fields(c.phrase)); got != c.want {
			t.Errorf("doc %d phrase %q = %v, want %v", c.doc, c.phrase, got, c.want)
		}
	}
	if px.ContainsPhrase(1, nil) {
		t.Error("empty phrase contained")
	}
}

func TestPhraseCount(t *testing.T) {
	px := buildPhraseIndex()
	if got := px.PhraseCount(3, []string{"bronchial", "structure"}); got != 1 {
		t.Errorf("count = %d, want 1 (only positions 1,2 align)", got)
	}
	if got := px.PhraseCount(3, []string{"bronchial"}); got != 2 {
		t.Errorf("single-token count = %d", got)
	}
	px2 := NewIndex()
	px2.Add(1, strings.Fields("a b a b a b"))
	if got := px2.PhraseCount(1, []string{"a", "b"}); got != 3 {
		t.Errorf("repeated phrase count = %d", got)
	}
}

func TestPhraseDocs(t *testing.T) {
	px := buildPhraseIndex()
	got := px.PhraseDocs([]string{"bronchial", "structure"})
	if !reflect.DeepEqual(got, []DocKey{1, 3}) {
		t.Errorf("PhraseDocs = %v", got)
	}
	if got := px.PhraseDocs([]string{"bronchial"}); !reflect.DeepEqual(got, []DocKey{1, 2, 3}) {
		t.Errorf("single-token docs = %v", got)
	}
	if got := px.PhraseDocs([]string{"missing", "structure"}); len(got) != 0 {
		t.Errorf("missing-term docs = %v", got)
	}
	if got := px.PhraseDocs(nil); got != nil {
		t.Errorf("empty phrase docs = %v", got)
	}
	if px.N() != 4 || px.DF("bronchial") != 3 {
		t.Errorf("stats: N=%d DF=%d", px.N(), px.DF("bronchial"))
	}
}

func TestAddOutOfOrderPanics(t *testing.T) {
	for name, keys := range map[string][]DocKey{"descending": {5, 2}, "repeated": {5, 5}, "first below": {5, 0}} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) after Add(%d) did not panic", keys[1], keys[0])
				}
			}()
			px := NewIndex()
			px.Add(keys[0], []string{"x"})
			px.Add(keys[1], []string{"y"})
		})
	}
}

// Property: ContainsPhrase agrees with the brute-force substring test
// over random token sequences.
func TestQuickPhraseAgainstBruteForce(t *testing.T) {
	words := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		px := NewIndex()
		docs := make([][]string, 1+r.Intn(5))
		for d := range docs {
			n := r.Intn(12)
			toks := make([]string, n)
			for i := range toks {
				toks[i] = words[r.Intn(len(words))]
			}
			docs[d] = toks
			px.Add(DocKey(d), toks)
		}
		phrase := make([]string, 1+r.Intn(3))
		for i := range phrase {
			phrase[i] = words[r.Intn(len(words))]
		}
		for d, toks := range docs {
			want := bruteContains(toks, phrase)
			if got := px.ContainsPhrase(DocKey(d), phrase); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func bruteContains(toks, phrase []string) bool {
	if len(phrase) == 0 || len(toks) < len(phrase) {
		return false
	}
outer:
	for i := 0; i+len(phrase) <= len(toks); i++ {
		for j := range phrase {
			if toks[i+j] != phrase[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// The positional index agrees with the tree-walking phrase test on real
// node descriptions.
func TestPositionalMatchesNodeWalk(t *testing.T) {
	doc, err := xmltree.ParseString(`<root>
		<a displayName="Bronchial structure">x</a>
		<b>structure bronchial</b>
		<c>the bronchial structure here</c>
	</root>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.AssignDewey()
	px := NewIndex()
	nodes := doc.Nodes()
	for i, n := range nodes {
		px.Add(DocKey(i), xmltree.NodeTokens(n))
	}
	phrase := xmltree.Tokenize("bronchial structure")
	for i, n := range nodes {
		want := xmltree.ContainsKeyword(n, "bronchial structure")
		got := px.ContainsPhrase(DocKey(i), phrase)
		if want != got {
			t.Errorf("node %d (%s): walk=%v positional=%v", i, n.Tag, want, got)
		}
	}
}
