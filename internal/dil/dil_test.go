package dil

import (
	"math"
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func testCorpus(t *testing.T) (*xmltree.Corpus, *ontology.Ontology) {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(fig1)
	return corpus, ont
}

func bigCorpus(t *testing.T) (*xmltree.Corpus, *ontology.Ontology) {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 9, ExtraConcepts: 200, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 9, NumDocuments: 15, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateCorpus(), ont
}

func TestIndexSetDropsEmpty(t *testing.T) {
	ix := NewIndex()
	c := Compact(keyed([]Entry{
		{ID: xmltree.Dewey{0, 1}, Score: 1},
		{ID: xmltree.Dewey{0, 5}, Score: 1},
	}))
	ix.Set("kw", c)
	if ix.Compact("kw") != c {
		t.Error("Set did not install the list")
	}
	ix.Set("kw", Compact(nil, IDs{}))
	if ix.Compact("kw") != nil {
		t.Error("empty list retained")
	}
	ix.Set("kw", c)
	ix.Set("kw", nil)
	if ix.Compact("kw") != nil || len(ix.Keywords()) != 0 {
		t.Error("nil list retained")
	}
}

// inDeweyOrder reports whether a built list's identifiers ascend
// strictly, as its keys do.
func inDeweyOrder(l List, ids IDs) bool {
	for i := 1; i < len(l); i++ {
		if l[i-1].Key >= l[i].Key || ids.ID(l[i-1].Key).Compare(ids.ID(l[i].Key)) >= 0 {
			return false
		}
	}
	return true
}

// postings counts an index's postings.
func postings(ix *Index) int {
	n := 0
	for _, kw := range ix.Keywords() {
		n += ix.Compact(kw).Len()
	}
	return n
}

func TestBuildKeywordTextMatch(t *testing.T) {
	corpus, ont := testCorpus(t)
	b := NewBuilder(corpus, ont, ontoscore.StrategyNone, DefaultParams())
	l := b.BuildKeyword("theophylline")
	if len(l) == 0 {
		t.Fatal("no postings for a literal keyword")
	}
	if !inDeweyOrder(l, b.IDs()) {
		t.Error("list not sorted")
	}
	// Every posting resolves to a node whose description contains it.
	for _, p := range b.IDs().Entries(l) {
		n := corpus.NodeAt(p.ID)
		if n == nil {
			t.Fatalf("posting %v resolves to nothing", p.ID)
		}
		if !xmltree.ContainsKeyword(n, "theophylline") {
			t.Errorf("node %v does not contain keyword", p.ID)
		}
		if p.Score <= 0 || p.Score > 1 {
			t.Errorf("score %f out of range", p.Score)
		}
	}
}

func TestBuildKeywordPhrase(t *testing.T) {
	corpus, ont := testCorpus(t)
	b := NewBuilder(corpus, ont, ontoscore.StrategyNone, DefaultParams())
	// "vital signs" appears as a title.
	l := b.BuildKeyword("vital signs")
	if len(l) == 0 {
		t.Fatal("phrase keyword found nothing")
	}
	for _, p := range b.IDs().Entries(l) {
		if !xmltree.ContainsKeyword(corpus.NodeAt(p.ID), "vital signs") {
			t.Errorf("node %v lacks phrase", p.ID)
		}
	}
	// Non-contiguous words must not match.
	if l := b.BuildKeyword("signs vital"); len(l) != 0 {
		t.Errorf("reversed phrase matched %d postings", len(l))
	}
}

// The intro example at the index level: under StrategyNone the keyword
// "bronchial structure" has no postings (it never occurs in the
// document); under Relationships the asthma code node carries an
// alpha-scaled OntoScore posting.
func TestBuildKeywordOntological(t *testing.T) {
	corpus, ont := testCorpus(t)
	baseline := NewBuilder(corpus, ont, ontoscore.StrategyNone, DefaultParams())
	if l := baseline.BuildKeyword("bronchial structure"); len(l) != 0 {
		t.Fatalf("baseline found %d postings for absent phrase", len(l))
	}
	rel := NewBuilder(corpus, ont, ontoscore.StrategyRelationships, DefaultParams())
	l := rel.BuildKeyword("bronchial structure")
	if len(l) == 0 {
		t.Fatal("Relationships found no postings for ontologically related phrase")
	}
	foundAsthma := false
	for _, p := range rel.IDs().Entries(l) {
		n := corpus.NodeAt(p.ID)
		ref, ok := n.OntoRef()
		if !ok {
			t.Errorf("ontological posting on non-code node %v", p.ID)
			continue
		}
		if ref.Code == ontology.CodeAsthma {
			foundAsthma = true
			// alpha * OS = 0.5 * 0.25 (strongest path, see ontoscore
			// tests).
			if math.Abs(p.Score-0.125) > 1e-9 {
				t.Errorf("asthma posting score = %f, want 0.125", p.Score)
			}
		}
	}
	if !foundAsthma {
		t.Error("asthma code node missing from bronchial-structure DIL")
	}
}

func TestEquation5MaxSemantics(t *testing.T) {
	// A node containing the keyword AND referencing a matching concept
	// takes the larger branch. "asthma" occurs literally in the asthma
	// code node's displayName (IRS close to 1 after normalization) while
	// alpha*OS = 0.5; the text branch must win.
	corpus, ont := testCorpus(t)
	b := NewBuilder(corpus, ont, ontoscore.StrategyRelationships, DefaultParams())
	l := b.BuildKeyword("asthma")
	var asthmaScore float64
	for _, p := range b.IDs().Entries(l) {
		n := corpus.NodeAt(p.ID)
		if ref, ok := n.OntoRef(); ok && ref.Code == ontology.CodeAsthma {
			asthmaScore = p.Score
		}
	}
	if asthmaScore <= 0.5 {
		t.Errorf("text branch lost to onto branch: %f", asthmaScore)
	}
}

func TestVocabulary(t *testing.T) {
	corpus, ont := testCorpus(t)
	b := NewBuilder(corpus, ont, ontoscore.StrategyGraph, DefaultParams())
	v0 := b.Vocabulary(0)
	v2 := b.Vocabulary(2)
	if len(v2) <= len(v0) {
		t.Errorf("2-hop vocabulary (%d) not larger than 0-hop (%d)", len(v2), len(v0))
	}
	// Corpus tokens always included.
	has := func(v []string, w string) bool {
		for _, x := range v {
			if x == w {
				return true
			}
		}
		return false
	}
	if !has(v0, "theophylline") {
		t.Error("corpus token missing from vocabulary")
	}
	// "structure" (from Bronchial structure, one hop from asthma) only
	// appears with hops >= 1.
	if has(v0, "structure") {
		t.Error("0-hop vocabulary leaked neighborhood tokens")
	}
	if !has(v2, "structure") {
		t.Error("2-hop vocabulary missing neighbor token")
	}
	for i := 1; i < len(v2); i++ {
		if v2[i-1] >= v2[i] {
			t.Fatal("vocabulary not sorted")
		}
	}
}

func TestBuildFullIndex(t *testing.T) {
	corpus, ont := bigCorpus(t)
	b := NewBuilder(corpus, ont, ontoscore.StrategyGraph, DefaultParams())
	vocab := b.Vocabulary(1)
	ix, stats, err := b.Build(vocab)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keywords != len(vocab) {
		t.Errorf("stats.Keywords = %d", stats.Keywords)
	}
	if stats.TotalPostings != postings(ix) {
		t.Errorf("postings mismatch: %d vs %d", stats.TotalPostings, postings(ix))
	}
	bytes := 0
	for _, kw := range ix.Keywords() {
		bytes += len(Compact(b.BuildKeyword(kw), b.IDs()).AppendSegment(nil))
	}
	if stats.TotalBytes != bytes {
		t.Errorf("bytes mismatch: %d vs %d", stats.TotalBytes, bytes)
	}
	if stats.AvgPostings() <= 0 || stats.AvgBytes() <= 0 || stats.AvgCreationTime() < 0 {
		t.Error("degenerate averages")
	}
	if stats.OntoMapEntries == 0 {
		t.Error("OntoScore stage produced no entries under Graph")
	}
	// Consistency with single-keyword builds.
	for _, kw := range []string{"asthma", "cardiac", "medications"} {
		direct := b.IDs().Entries(b.BuildKeyword(kw))
		stored := ix.Compact(kw).Entries()
		if len(direct) != len(stored) {
			t.Fatalf("kw %q: %d direct vs %d stored", kw, len(direct), len(stored))
		}
		for i := range direct {
			if !direct[i].ID.Equal(stored[i].ID) || math.Abs(direct[i].Score-stored[i].Score) > 1e-12 {
				t.Errorf("kw %q posting %d differs", kw, i)
			}
		}
	}
	if _, _, err := b.Build(nil); err == nil {
		t.Error("empty vocabulary accepted")
	}
}

func TestStrategyPostingCountOrdering(t *testing.T) {
	// XRANK indexes the fewest postings; ontology-enabled strategies add
	// postings (Table III's qualitative shape).
	corpus, ont := bigCorpus(t)
	vocabBuilder := NewBuilder(corpus, ont, ontoscore.StrategyNone, DefaultParams())
	vocab := vocabBuilder.Vocabulary(1)
	counts := make(map[ontoscore.Strategy]int)
	for _, s := range ontoscore.Strategies() {
		b := NewBuilder(corpus, ont, s, DefaultParams())
		ix, _, err := b.Build(vocab)
		if err != nil {
			t.Fatal(err)
		}
		counts[s] = postings(ix)
	}
	if counts[ontoscore.StrategyGraph] <= counts[ontoscore.StrategyNone] {
		t.Errorf("Graph (%d) should exceed XRANK (%d)", counts[ontoscore.StrategyGraph], counts[ontoscore.StrategyNone])
	}
	if counts[ontoscore.StrategyRelationships] < counts[ontoscore.StrategyTaxonomy] {
		t.Errorf("Relationships (%d) should be >= Taxonomy (%d)",
			counts[ontoscore.StrategyRelationships], counts[ontoscore.StrategyTaxonomy])
	}
}
