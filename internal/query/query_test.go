package query

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want []Keyword
	}{
		{`asthma medications`, []Keyword{"asthma", "medications"}},
		{`"bronchial structure" Theophylline`, []Keyword{"bronchial structure", "theophylline"}},
		{`a "b c" d "e f"`, []Keyword{"a", "b c", "d", "e f"}},
		{`"unterminated phrase`, []Keyword{"\"unterminated", "phrase"}},
		{`""`, nil},
		{``, nil},
		{`  spaced   out  `, []Keyword{"spaced", "out"}},
	}
	for _, c := range cases {
		got := ParseQuery(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseQuery(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func d(s string) xmltree.Dewey {
	id, err := xmltree.ParseDewey(s)
	if err != nil {
		panic(err)
	}
	return id
}

func TestRunDILMostSpecific(t *testing.T) {
	// Document 0:        root(0)
	//                   /       \
	//            section(0.0)   other(0.1)
	//             /      \
	//      kw1@0.0.0   kw2@0.0.1
	// The most specific element covering both keywords is 0.0.
	lists := [][]entry{
		{{ID: d("0.0.0"), Score: 1}},
		{{ID: d("0.0.1"), Score: 1}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	r := res[0]
	if r.Root.String() != "0.0" {
		t.Errorf("root = %v", r.Root)
	}
	// Each keyword one edge below: 1 * 0.5 each, sum = 1.
	if math.Abs(r.Score-1.0) > 1e-12 {
		t.Errorf("score = %f", r.Score)
	}
	if r.Matches[0].ID.String() != "0.0.0" || r.Matches[1].ID.String() != "0.0.1" {
		t.Errorf("matches = %v", r.Matches)
	}
}

func TestRunDILExcludesNonSpecificAncestors(t *testing.T) {
	// kw1 and kw2 both under 0.0 (a result) AND kw1 again at 0.1.
	// The root 0 also covers both but has a covering descendant, so
	// only 0.0 is a result (equation (1)).
	lists := [][]entry{
		{{ID: d("0.0.0"), Score: 1}, {ID: d("0.1"), Score: 1}},
		{{ID: d("0.0.1"), Score: 1}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 1 || res[0].Root.String() != "0.0" {
		t.Fatalf("results = %+v", res)
	}
}

func TestRunDILSingleNodeBothKeywords(t *testing.T) {
	// One node associated with both keywords is itself the most
	// specific result, scored without decay.
	lists := [][]entry{
		{{ID: d("0.2.1"), Score: 0.8}},
		{{ID: d("0.2.1"), Score: 0.6}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Root.String() != "0.2.1" {
		t.Errorf("root = %v", res[0].Root)
	}
	if math.Abs(res[0].Score-1.4) > 1e-12 {
		t.Errorf("score = %f", res[0].Score)
	}
}

func TestRunDILMultipleDocuments(t *testing.T) {
	lists := [][]entry{
		{{ID: d("0.0"), Score: 1}, {ID: d("3.1.0"), Score: 1}},
		{{ID: d("0.1"), Score: 1}, {ID: d("3.1.1"), Score: 0.5}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2 (one per document)", len(res))
	}
	roots := map[string]bool{}
	for _, r := range res {
		roots[r.Root.String()] = true
	}
	if !roots["0"] || !roots["3.1"] {
		t.Errorf("roots = %v", roots)
	}
}

func TestRunDILNoCoverNoResult(t *testing.T) {
	// Keywords in different documents: no element covers both.
	lists := [][]entry{
		{{ID: d("0.0"), Score: 1}},
		{{ID: d("1.0"), Score: 1}},
	}
	if res := runDIL(lists, 0.5); len(res) != 0 {
		t.Fatalf("results = %+v", res)
	}
	// Empty list for one keyword: conjunctive semantics.
	if res := runDIL([][]entry{{{ID: d("0.0"), Score: 1}}, {}}, 0.5); res != nil {
		t.Fatalf("results = %+v", res)
	}
	if res := runDIL(nil, 0.5); res != nil {
		t.Fatal("nil lists should produce nil")
	}
}

func TestRunDILDecayDepth(t *testing.T) {
	// kw1 at depth 3 below the cover, kw2 at depth 1.
	lists := [][]entry{
		{{ID: d("0.0.1.2.3"), Score: 1}},
		{{ID: d("0.0.4"), Score: 1}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 1 || res[0].Root.String() != "0.0" {
		t.Fatalf("results = %+v", res)
	}
	want := math.Pow(0.5, 3) + math.Pow(0.5, 1)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("score = %f, want %f", res[0].Score, want)
	}
	// Per-keyword components.
	if math.Abs(res[0].PerKeyword[0]-0.125) > 1e-12 || math.Abs(res[0].PerKeyword[1]-0.5) > 1e-12 {
		t.Errorf("per-keyword = %v", res[0].PerKeyword)
	}
}

func TestRunDILMaxAggregationPerKeyword(t *testing.T) {
	// Two occurrences of kw1 under the cover at different depths; the
	// shallower (less decayed) one must win equation (3)'s max.
	lists := [][]entry{
		{{ID: d("0.0.1.1"), Score: 1}, {ID: d("0.0.2"), Score: 0.9}},
		{{ID: d("0.0.3"), Score: 1}},
	}
	res := runDIL(lists, 0.5)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	// kw1: max(1*0.25, 0.9*0.5) = 0.45 via node 0.0.2.
	if math.Abs(res[0].PerKeyword[0]-0.45) > 1e-12 {
		t.Errorf("kw1 score = %f", res[0].PerKeyword[0])
	}
	if res[0].Matches[0].ID.String() != "0.0.2" {
		t.Errorf("kw1 match = %v", res[0].Matches[0].ID)
	}
}

// bruteForce recomputes the result set directly from the definition:
// candidates are all ancestors-or-self of postings; a result covers all
// keywords with no covering proper descendant; scores follow
// equations (2)-(4).
func bruteForce(lists [][]entry, decay float64) map[string]float64 {
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	type cand struct{ id xmltree.Dewey }
	seen := map[string]cand{}
	for _, l := range lists {
		for _, p := range l {
			for i := 1; i <= len(p.ID); i++ {
				prefix := p.ID[:i].Clone()
				seen[prefix.String()] = cand{id: prefix}
			}
		}
	}
	scores := map[string][]float64{}
	for key, c := range seen {
		perKw := make([]float64, len(lists))
		for k, l := range lists {
			for _, p := range l {
				if dist, ok := p.ID.Distance(c.id); ok {
					s := p.Score * math.Pow(decay, float64(dist))
					if s > perKw[k] {
						perKw[k] = s
					}
				}
			}
		}
		scores[key] = perKw
	}
	covered := func(perKw []float64) bool {
		for _, s := range perKw {
			if s <= 0 {
				return false
			}
		}
		return true
	}
	out := map[string]float64{}
	for key, c := range seen {
		perKw := scores[key]
		if !covered(perKw) {
			continue
		}
		specific := true
		for key2, c2 := range seen {
			if key2 == key {
				continue
			}
			if c.id.IsAncestorOf(c2.id) && covered(scores[key2]) {
				specific = false
				break
			}
		}
		if specific {
			total := 0.0
			for _, s := range perKw {
				total += s
			}
			out[key] = total
		}
	}
	return out
}

func TestRunDILMatchesBruteForce(t *testing.T) {
	// Deterministic pseudo-random posting sets across several shapes.
	shapes := [][][]string{
		{{"0.0.0", "0.1.2.3", "1.0"}, {"0.0.1", "1.1"}},
		{{"0.0", "0.0.0"}, {"0.0.0.1", "0.2"}},
		{{"5.1.1", "5.1.2", "5.2"}, {"5.1", "5.3"}, {"5.1.1.0"}},
		{{"0"}, {"0"}},
		{{"2.0.0.0.0"}, {"2.0.0.0.1"}, {"2.0.1"}},
	}
	for si, shape := range shapes {
		lists := make([][]entry, len(shape))
		for k, ids := range shape {
			for i, s := range ids {
				score := 0.3 + 0.1*float64((si+k+i)%7)
				lists[k] = append(lists[k], entry{ID: d(s), Score: score})
			}
			sortEntries(lists[k])
		}
		want := bruteForce(lists, 0.5)
		got := runDIL(lists, 0.5)
		if len(got) != len(want) {
			t.Fatalf("shape %d: %d results, brute force %d (%v)", si, len(got), len(want), want)
		}
		for _, r := range got {
			w, ok := want[r.Root.String()]
			if !ok {
				t.Errorf("shape %d: unexpected result %v", si, r.Root)
				continue
			}
			if math.Abs(r.Score-w) > 1e-9 {
				t.Errorf("shape %d root %v: score %f, brute force %f", si, r.Root, r.Score, w)
			}
		}
	}
}
