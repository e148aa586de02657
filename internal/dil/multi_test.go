package dil

import (
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func multiSetup(t *testing.T, strategy ontoscore.Strategy) (*Builder, *xmltree.Corpus, *ontology.Collection) {
	t.Helper()
	snomed, err := ontology.Generate(ontology.GenConfig{
		Seed: 12, ExtraConcepts: 100, SynonymProb: 0.3,
		MultiParentProb: 0.1, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	loinc := ontology.LOINCFragment()
	coll := ontology.MustCollection(snomed, loinc)
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 12, NumDocuments: 8, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, snomed)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	return NewMultiBuilder(corpus, coll, strategy, DefaultParams()), corpus, coll
}

func TestMultiBuilderResolvesBothSystems(t *testing.T) {
	b, corpus, _ := multiSetup(t, ontoscore.StrategyGraph)
	// LOINC-referenced postings: the section <code> nodes carry LOINC
	// references; a query for "hospital course" should reach documents
	// whose section code node references LOINC 8648-8 even though the
	// element's own text lacks the phrase... the title element carries
	// it textually; the code node association comes through LOINC.
	l := b.BuildKeyword("medication")
	if len(l) == 0 {
		t.Fatal("no postings")
	}
	viaLOINC := false
	for _, p := range b.IDs().Entries(l) {
		n := corpus.NodeAt(p.ID)
		if ref, ok := n.OntoRef(); ok && ref.System == ontology.LOINCSystemID {
			viaLOINC = true
		}
	}
	if !viaLOINC {
		t.Error("no posting on a LOINC-referencing code node for 'medication'")
	}
}

func TestMultiBuilderSingleEqualsMultiWithOneSystem(t *testing.T) {
	snomed := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(snomed)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	single := NewBuilder(corpus, snomed, ontoscore.StrategyRelationships, DefaultParams())
	multi := NewMultiBuilder(corpus, ontology.MustCollection(snomed), ontoscore.StrategyRelationships, DefaultParams())
	for _, kw := range []string{"asthma", "bronchial structure", "theophylline"} {
		a := single.IDs().Entries(single.BuildKeyword(kw))
		b := multi.IDs().Entries(multi.BuildKeyword(kw))
		if len(a) != len(b) {
			t.Fatalf("kw %q: %d vs %d postings", kw, len(a), len(b))
		}
		for i := range a {
			if !a[i].ID.Equal(b[i].ID) || a[i].Score != b[i].Score {
				t.Errorf("kw %q posting %d differs", kw, i)
			}
		}
	}
}

func TestMultiBuilderAddingSystemOnlyAdds(t *testing.T) {
	// Adding LOINC to the collection must not remove or change any
	// SNOMED-derived posting, only add LOINC-derived ones.
	snomed, err := ontology.Generate(ontology.GenConfig{Seed: 12, ExtraConcepts: 50})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 12, NumDocuments: 5, ProblemsPerPatient: 2,
		MedicationsPerPatient: 2, ProceduresPerPatient: 1,
	}, snomed)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	without := NewMultiBuilder(corpus, ontology.MustCollection(snomed), ontoscore.StrategyGraph, DefaultParams())
	with := NewMultiBuilder(corpus, ontology.MustCollection(snomed, ontology.LOINCFragment()), ontoscore.StrategyGraph, DefaultParams())
	for _, kw := range []string{"medication", "asthma", "vital"} {
		a := without.IDs().Entries(without.BuildKeyword(kw))
		b := with.IDs().Entries(with.BuildKeyword(kw))
		if len(b) < len(a) {
			t.Fatalf("kw %q: postings shrank from %d to %d", kw, len(a), len(b))
		}
		scores := make(map[string]float64, len(b))
		for _, p := range b {
			scores[p.ID.String()] = p.Score
		}
		for _, p := range a {
			got, ok := scores[p.ID.String()]
			if !ok {
				t.Errorf("kw %q: posting %v lost", kw, p.ID)
				continue
			}
			if got < p.Score-1e-12 {
				t.Errorf("kw %q: posting %v score decreased %f -> %f", kw, p.ID, p.Score, got)
			}
		}
	}
}

func TestMultiBuilderVocabularyIncludesAllSystems(t *testing.T) {
	b, _, _ := multiSetup(t, ontoscore.StrategyGraph)
	vocab := b.Vocabulary(1)
	has := func(w string) bool {
		for _, v := range vocab {
			if v == w {
				return true
			}
		}
		return false
	}
	// "summarization" appears only in the LOINC panel concept, one hop
	// from the referenced section codes.
	if !has("summarization") {
		t.Error("LOINC neighborhood token missing from vocabulary")
	}
	if !has("asthma") {
		t.Error("SNOMED token missing from vocabulary")
	}
	if b.Computer(ontology.LOINCSystemID) == nil || b.Computer("nope") != nil {
		t.Error("Computer accessor wrong")
	}
	if b.Collection().Len() != 2 {
		t.Error("Collection accessor wrong")
	}
}
