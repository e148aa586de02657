package dil

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cda"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// TestMain enforces the failpoint-leak contract for this package.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := faultinject.CheckDisabled(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func dewey(t *testing.T, s string) xmltree.Dewey {
	t.Helper()
	d, err := xmltree.ParseDewey(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testIndex builds a small index with deterministic content.
func testIndex(t *testing.T, tag string) *Index {
	t.Helper()
	ix := NewIndex()
	for i, kw := range []string{"asthma" + tag, "cardiac" + tag, "arrest" + tag} {
		ix.Set(kw, List{
			{ID: dewey(t, fmt.Sprintf("%d.1", i+1)), Score: 0.5 + float64(i)/10},
			{ID: dewey(t, fmt.Sprintf("%d.2.1", i+1)), Score: 0.25},
		})
	}
	return ix
}

// figure1Builder wires the Figure 1 CDA document against the Figure 2
// SNOMED fragment with the relationships strategy — ontology-enriched,
// so the IR-only and full builds genuinely differ.
func figure1Builder(t *testing.T) *Builder {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	return NewBuilder(corpus, ont, ontoscore.StrategyRelationships, DefaultParams())
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	kv, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return kv
}

func indexEqual(a, b *Index) bool {
	ka, kb := a.Keywords(), b.Keywords()
	if !reflect.DeepEqual(ka, kb) {
		return false
	}
	for _, kw := range ka {
		if !reflect.DeepEqual(a.List(kw), b.List(kw)) {
			return false
		}
	}
	return true
}

// An error injected midway through SaveTo must leave the previously
// saved index fully loadable — the staged generation never becomes
// current.
func TestSaveToMidSaveFailureKeepsOldIndex(t *testing.T) {
	defer faultinject.DisableAll()
	kv := openStore(t)
	old := testIndex(t, "")
	if err := old.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}

	// Fail on the second list of the replacement save.
	faultinject.Enable(FPSave, faultinject.Spec{After: 1, Count: 1})
	replacement := testIndex(t, "2")
	if err := replacement.SaveTo(kv, "dil/x"); err == nil {
		t.Fatal("SaveTo survived the injected mid-save failure")
	}
	faultinject.Disable(FPSave)

	got, err := LoadFrom(kv, "dil/x")
	if err != nil {
		t.Fatalf("old index not loadable after failed save: %v", err)
	}
	if !indexEqual(got, old) {
		t.Fatalf("loaded index differs from the pre-failure one:\ngot  %v\nwant %v",
			got.Keywords(), old.Keywords())
	}

	// With the fault gone, the replacement save goes through and is the
	// one future loads see.
	if err := replacement.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFrom(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	if !indexEqual(got, replacement) {
		t.Fatal("replacement index not current after successful save")
	}
}

// A successful re-save swaps atomically: the new generation is current
// and the superseded generation's keys are gone.
func TestSaveToSwapsAndDeletesOldGeneration(t *testing.T) {
	kv := openStore(t)
	first := testIndex(t, "")
	if err := first.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	second := testIndex(t, "2")
	if err := second.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrom(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	if !indexEqual(got, second) {
		t.Fatal("load did not follow the generation pointer")
	}
	// Exactly one generation of data keys plus the pointer remains.
	var dataKeys int
	for _, k := range kv.Keys() {
		if strings.HasPrefix(k, "dil/x@") {
			dataKeys++
		}
	}
	if dataKeys != len(second.Keywords()) {
		t.Fatalf("store holds %d data keys, want %d (old generation not deleted)",
			dataKeys, len(second.Keywords()))
	}
}

// SaveTo persists lists in the compact block encoding, and what it
// writes loads back identically (the on-disk round-trip through the
// block format is lossless).
func TestSaveToWritesCompactEncoding(t *testing.T) {
	kv := openStore(t)
	ix := testIndex(t, "")
	if err := ix.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, k := range kv.Keys() {
		if !strings.HasPrefix(k, "dil/x@") {
			continue
		}
		val, err := kv.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !IsCompactEncoding(val) {
			t.Errorf("key %s not in the compact block encoding", k)
		}
		checked++
	}
	if checked != len(ix.Keywords()) {
		t.Fatalf("checked %d keys, want %d", checked, len(ix.Keywords()))
	}
	got, err := LoadFrom(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	if !indexEqual(got, ix) {
		t.Fatal("compact-encoded save did not round-trip")
	}
}

// Pre-generation stores (lists saved flat under prefix/<kw>) must still
// load.
func TestLoadFromLegacyFlatLayout(t *testing.T) {
	kv := openStore(t)
	want := testIndex(t, "")
	for _, kw := range want.Keywords() {
		if err := kv.Put("dil/x/"+kw, want.List(kw).AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadFrom(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	if !indexEqual(got, want) {
		t.Fatal("legacy flat layout did not load")
	}
	// StoreSource reads the same layout.
	src := NewStoreSource(kv, "dil/x", 0)
	if l := src.List(want.Keywords()[0]); len(l) == 0 {
		t.Fatal("StoreSource missed legacy layout")
	}
}

// Load errors name the failing keyword and its physical location in the
// store (segment and offset).
func TestLoadFromErrorIncludesLocation(t *testing.T) {
	kv := openStore(t)
	ix := testIndex(t, "")
	if err := ix.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	dataPfx, err := resolveDataPrefix(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	bad := ix.Keywords()[1]
	if err := kv.Put(dataPfx+"/"+bad, []byte{0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFrom(kv, "dil/x")
	if err == nil {
		t.Fatal("undecodable list loaded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, bad) || !strings.Contains(msg, "segment ") || !strings.Contains(msg, "offset ") {
		t.Fatalf("error lacks keyword/segment/offset context: %v", err)
	}
}

// Lenient loads skip undecodable lists with a counted warning and keep
// everything else.
func TestLoadFromLenientSkipsBadLists(t *testing.T) {
	kv := openStore(t)
	ix := testIndex(t, "")
	if err := ix.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	dataPfx, err := resolveDataPrefix(kv, "dil/x")
	if err != nil {
		t.Fatal(err)
	}
	bad := ix.Keywords()[0]
	if err := kv.Put(dataPfx+"/"+bad, []byte{0x01}); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	got, report, err := LoadFromOptions(kv, "dil/x", LoadOptions{
		Lenient: true,
		Logf:    func(f string, a ...any) { warnings = append(warnings, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatalf("lenient load failed: %v", err)
	}
	if got.Has(bad) {
		t.Error("bad list present in lenient load")
	}
	if report.Lists != len(ix.Keywords())-1 {
		t.Errorf("report.Lists = %d, want %d", report.Lists, len(ix.Keywords())-1)
	}
	if len(report.Skipped) != 1 || report.Skipped[0] != bad {
		t.Errorf("report.Skipped = %v, want [%s]", report.Skipped, bad)
	}
	if len(warnings) == 0 {
		t.Error("lenient skip produced no warning")
	}
	for _, kw := range ix.Keywords()[1:] {
		if !reflect.DeepEqual(got.List(kw), ix.List(kw)) {
			t.Errorf("list %q differs after lenient load", kw)
		}
	}
}

// The dil.load failpoint makes load faults injectable; lenient loads
// survive them, strict loads surface them.
func TestLoadFailpoint(t *testing.T) {
	defer faultinject.DisableAll()
	kv := openStore(t)
	ix := testIndex(t, "")
	if err := ix.SaveTo(kv, "dil/x"); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(FPLoad, faultinject.Spec{Count: 1})
	if _, err := LoadFrom(kv, "dil/x"); err == nil {
		t.Fatal("strict load ignored the injected fault")
	}
	faultinject.Enable(FPLoad, faultinject.Spec{Count: 1})
	got, report, err := LoadFromOptions(kv, "dil/x", LoadOptions{Lenient: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("lenient load failed: %v", err)
	}
	if len(report.Skipped) != 1 {
		t.Fatalf("skipped = %v, want exactly the faulted list", report.Skipped)
	}
	if n := len(got.Keywords()); n != len(ix.Keywords())-1 {
		t.Fatalf("loaded %d lists, want %d", n, len(ix.Keywords())-1)
	}
}

// The IR-only degraded build is byte-identical to the same builder with
// the ontology branch empty — and never includes ontology-only
// postings.
func TestBuildKeywordIRMatchesTextOnly(t *testing.T) {
	b := figure1Builder(t)
	full := b.BuildKeyword("asthma")
	ir := b.BuildKeywordIR("asthma")
	if len(ir) == 0 {
		t.Fatal("IR-only build empty for a textual keyword")
	}
	if len(ir) > len(full) {
		t.Fatalf("IR-only build (%d postings) larger than full build (%d)", len(ir), len(full))
	}
	// Every IR posting appears in the full build with at least its score
	// (equation (5) takes the max of the IR and ontology branches).
	fullAt := make(map[string]float64, len(full))
	for _, p := range full {
		fullAt[p.ID.String()] = p.Score
	}
	for _, p := range ir {
		fs, ok := fullAt[p.ID.String()]
		if !ok || fs < p.Score {
			t.Errorf("posting %s: full=%v ir=%v", p.ID, fs, p.Score)
		}
	}
}

// BuildKeywordE returns the same list as BuildKeyword when healthy and
// surfaces injected ontology faults when not.
func TestBuildKeywordE(t *testing.T) {
	defer faultinject.DisableAll()
	b := figure1Builder(t)
	want := b.BuildKeyword("asthma")
	got, err := b.BuildKeywordE("asthma")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BuildKeywordE differs from BuildKeyword")
	}
	faultinject.Enable(FPOntoResolve, faultinject.Spec{})
	if _, err := b.BuildKeywordE("asthma"); err == nil {
		t.Fatal("BuildKeywordE ignored the armed ontology failpoint")
	}
	faultinject.Disable(FPOntoResolve)
	// The non-fallible path is not failpoint-instrumented (bulk builds
	// and experiments bypass the breaker boundary).
	faultinject.Enable(FPOntoResolve, faultinject.Spec{})
	if l := b.BuildKeyword("asthma"); !reflect.DeepEqual(l, want) {
		t.Fatal("BuildKeyword changed under an armed failpoint")
	}
	faultinject.Disable(FPOntoResolve)
}

// Builds read OntoScores through the side's memo: a keyword's third
// build is a memo hit (the span says so), answers what the first
// build did, and still hits FPOntoResolve — an armed failpoint fails
// the fallible build on a memo hit exactly as on a propagation.
func TestSideMemoFailpoint(t *testing.T) {
	defer faultinject.DisableAll()
	b := figure1Builder(t)
	build := func() (List, string) {
		t.Helper()
		ctx, root := obs.NewTracer(4).StartRoot(context.Background(), "test")
		l, err := b.BuildKeywordECtx(ctx, "asthma")
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		tree := root.Tree()
		return l, fmt.Sprint(tree.Find("dil.build_keyword").Attrs["onto"])
	}
	want, src := build()
	if src != "propagated" {
		t.Fatalf("first build: onto=%s, want propagated", src)
	}
	if _, src = build(); src != "propagated" {
		t.Fatalf("second build: onto=%s, want propagated (admitted, not yet served)", src)
	}
	got, src := build()
	if src != "memo" {
		t.Fatalf("third build: onto=%s, want memo", src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("memo hit built a different list")
	}
	faultinject.Enable(FPOntoResolve, faultinject.Spec{})
	if _, err := b.BuildKeywordE("asthma"); err == nil {
		t.Fatal("memo hit ignored the armed ontology failpoint")
	}
	faultinject.Disable(FPOntoResolve)
}
