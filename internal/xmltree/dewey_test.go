package xmltree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseDeweyRoundTrip(t *testing.T) {
	cases := []string{"0", "3.0.1.2", "12.0.0.0.5", "7"}
	for _, s := range cases {
		d, err := ParseDewey(s)
		if err != nil {
			t.Fatalf("ParseDewey(%q): %v", s, err)
		}
		if got := d.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseDeweyErrors(t *testing.T) {
	for _, s := range []string{"", "1..2", "a.b", "-1.2", "1.x"} {
		if _, err := ParseDewey(s); err == nil {
			t.Errorf("ParseDewey(%q): want error, got nil", s)
		}
	}
}

func TestDeweyCompare(t *testing.T) {
	mk := func(s string) Dewey {
		d, err := ParseDewey(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "1", 0},
		{"1", "2", -1},
		{"2", "1", 1},
		{"1", "1.0", -1}, // ancestor sorts first
		{"1.0", "1", 1},
		{"1.0.5", "1.1", -1},
		{"1.2", "1.10", -1}, // numeric, not lexicographic on strings
	}
	for _, c := range cases {
		if got := mk(c.a).Compare(mk(c.b)); got != c.want {
			t.Errorf("Compare(%s,%s)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeweyAncestry(t *testing.T) {
	root := Dewey{3}
	a := root.Child(0)
	b := a.Child(2)
	if !root.IsAncestorOf(b) || !a.IsAncestorOf(b) {
		t.Fatal("expected ancestors")
	}
	if b.IsAncestorOf(a) || a.IsAncestorOf(a) {
		t.Fatal("unexpected ancestor relation")
	}
	if !a.IsAncestorOrSelf(a) {
		t.Fatal("IsAncestorOrSelf(self) must be true")
	}
	if got := b.Parent(); !got.Equal(a) {
		t.Errorf("Parent(%v)=%v want %v", b, got, a)
	}
	if got := (Dewey{3}).Parent(); got != nil {
		t.Errorf("Parent of root = %v, want nil", got)
	}
	if dist, ok := b.Distance(root); !ok || dist != 2 {
		t.Errorf("Distance=%d,%v want 2,true", dist, ok)
	}
	if _, ok := a.Distance(b); ok {
		t.Error("Distance from non-ancestor should report false")
	}
}

func randomDewey(r *rand.Rand) Dewey {
	n := 1 + r.Intn(6)
	d := make(Dewey, n)
	for i := range d {
		d[i] = int32(r.Intn(50))
	}
	return d
}

// Property: Compare defines a total order consistent with sort.
func TestQuickDeweyOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := make([]Dewey, 20)
		for i := range ds {
			ds[i] = randomDewey(r)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].Compare(ds[j]) < 0 })
		for i := 1; i < len(ds); i++ {
			if ds[i-1].Compare(ds[i]) > 0 {
				return false
			}
			// antisymmetry
			if ds[i-1].Compare(ds[i]) != -ds[i].Compare(ds[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an ancestor always compares before its descendants, and the
// common prefix is an ancestor-or-self of both inputs.
func TestQuickDeweyAncestorOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDewey(r)
		d := a.Clone()
		for i := 0; i < 1+r.Intn(4); i++ {
			d = d.Child(int32(r.Intn(10)))
		}
		return a.IsAncestorOf(d) && a.Compare(d) < 0 && !d.IsAncestorOrSelf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeweyCloneIndependence(t *testing.T) {
	a := Dewey{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	var nilD Dewey
	if got := nilD.Clone(); got != nil {
		t.Errorf("Clone(nil) = %v, want nil", got)
	}
}

func TestDeweyChildDoesNotAliasParentStorage(t *testing.T) {
	a := make(Dewey, 1, 8)
	a[0] = 1
	c1 := a.Child(5)
	c2 := a.Child(7)
	if reflect.DeepEqual(c1, c2) {
		t.Fatal("children with different ordinals must differ")
	}
	if c1[1] != 5 || c2[1] != 7 {
		t.Errorf("Child aliasing: got %v and %v", c1, c2)
	}
}
