package relevance

import (
	"context"
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// buildSVTAspirinCorpus builds a document that references
// Supraventricular arrhythmia and Aspirin — the kind of record the
// acetaminophen query incorrectly reaches through the sibling mapping.
func buildSVTAspirinCorpus(t *testing.T, ont *ontology.Ontology) *xmltree.Corpus {
	t.Helper()
	svt := ont.ByPreferred("Supraventricular arrhythmia")
	asp := ont.ByPreferred("Aspirin")
	meds, _ := ont.ByCode(ontology.CodeMedications)
	if svt == nil || asp == nil || meds == nil {
		t.Fatal("cardiology concepts missing")
	}
	b := cda.NewBuilder("c900", "Eva", "Cardoso")
	b.SetPatient("Kid", "Patient", "F", "20150101")
	sec := b.Section(cda.LOINCProblems, "Problems")
	cda.AddObservation(sec, ont, meds, svt)
	m := b.Section(cda.LOINCMedications, "Medications")
	cda.AddMedication(m, ont, asp, "81 mg daily")
	corpus := xmltree.NewCorpus()
	corpus.Add(b.Document("svt-aspirin"))
	return corpus
}

func genOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 2, ExtraConcepts: 0})
	if err != nil {
		t.Fatal(err)
	}
	return ont
}

// topK answers a parsed query through Engine.Query.
func topK(t *testing.T, e *query.Engine, kws []query.Keyword, k int) []query.Result {
	t.Helper()
	resp, err := e.Query(context.Background(), query.Request{Keywords: kws, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func searchWith(t *testing.T, corpus *xmltree.Corpus, ont *ontology.Ontology, strategy ontoscore.Strategy, q string) ([]query.Keyword, []query.Result) {
	t.Helper()
	b := dil.NewBuilder(corpus, ont, strategy, dil.DefaultParams())
	e := query.NewEngine(dil.NewIndex(), b, query.DefaultParams())
	kws := query.ParseQuery(q)
	return kws, topK(t, e, kws, 5)
}

func TestLiteralMatchesRelevant(t *testing.T) {
	ont := genOntology(t)
	corpus := buildSVTAspirinCorpus(t, ont)
	o := NewOracle(ont)
	kws, res := searchWith(t, corpus, ont, ontoscore.StrategyNone, `"supraventricular arrhythmia" aspirin`)
	if len(res) == 0 {
		t.Fatal("no results for literal query")
	}
	j := o.JudgeResult(corpus, kws, res[0])
	if !j.Relevant {
		t.Fatalf("literal match judged irrelevant: %+v", j)
	}
	for _, kj := range j.PerKeyword {
		if !kj.Literal || kj.Distance != 0 {
			t.Errorf("keyword %q: %+v", kj.Keyword, kj)
		}
	}
}

// The acetaminophen/aspirin context-mismatch case: the ontology maps
// acetaminophen to its sibling aspirin (distance 2 via the shared
// Analgesic class), the document also matches supraventricular
// arrhythmia — but aspirin has no ontological connection to the
// arrhythmia context, so the oracle rejects the result, reproducing
// the zeros in Table I's last row.
func TestContextMismatchAcetaminophen(t *testing.T) {
	ont := genOntology(t)
	corpus := buildSVTAspirinCorpus(t, ont)
	o := NewOracle(ont)
	kws, res := searchWith(t, corpus, ont, ontoscore.StrategyTaxonomy, `"supraventricular arrhythmia" acetaminophen`)
	if len(res) == 0 {
		t.Fatal("taxonomy strategy found no results; sibling mapping broken")
	}
	j := o.JudgeResult(corpus, kws, res[0])
	if j.Relevant {
		t.Fatalf("context-mismatch result judged relevant: %+v", j)
	}
	// The acetaminophen keyword specifically failed: not literal, and
	// its ontological match is at least the sibling distance away with
	// no context support.
	kj := j.PerKeyword[1]
	if kj.Literal {
		t.Error("acetaminophen should not match literally")
	}
	if kj.Distance < 2 {
		t.Errorf("distance = %d, want >= 2", kj.Distance)
	}
	if kj.Context || kj.Relevant {
		t.Errorf("acetaminophen keyword judged %+v", kj)
	}
	// The sibling mapping itself is distance 2 (via the shared
	// Analgesic class) and lacks arrhythmia context.
	asp := ont.ByPreferred("Aspirin")
	if d := o.conceptKeywordDistance(asp.ID, "acetaminophen"); d != 2 {
		t.Errorf("aspirin<->acetaminophen distance = %d, want 2", d)
	}
	if o.hasContextSupport(asp.ID, kws, 1) {
		t.Error("aspirin should lack supraventricular-arrhythmia context")
	}
}

// A distance-1 ontological match (finding-site-of) is relevant without
// context: the intro's bronchial structure / asthma case.
func TestDirectRelationshipRelevant(t *testing.T) {
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	o := NewOracle(ont)
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyRelationships, dil.DefaultParams())
	e := query.NewEngine(dil.NewIndex(), b, query.DefaultParams())
	kws := query.ParseQuery(`"bronchial structure" theophylline`)
	res := topK(t, e, kws, 5)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	j := o.JudgeResult(corpus, kws, res[0])
	if !j.Relevant {
		t.Fatalf("intro example judged irrelevant: %+v", j)
	}
	kj := j.PerKeyword[0]
	if kj.Literal {
		t.Error("bronchial structure should be an ontological match")
	}
	if kj.Distance > o.Horizon || kj.Distance < 1 {
		t.Errorf("distance = %d", kj.Distance)
	}
}

func TestCountRelevantCap(t *testing.T) {
	ont := genOntology(t)
	corpus := buildSVTAspirinCorpus(t, ont)
	o := NewOracle(ont)
	kws, res := searchWith(t, corpus, ont, ontoscore.StrategyNone, `aspirin medications`)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// Duplicate the result list to exceed the cap.
	many := append(append([]query.Result{}, res...), res...)
	many = append(many, res...)
	if got := o.CountRelevant(corpus, kws, many, 2); got > 2 {
		t.Errorf("CountRelevant exceeded cap: %d", got)
	}
}

func TestJudgeResultDegenerate(t *testing.T) {
	ont := genOntology(t)
	corpus := xmltree.NewCorpus()
	o := NewOracle(ont)
	// Result pointing nowhere.
	j := o.JudgeResult(corpus, []query.Keyword{"asthma"}, query.Result{
		Root:    xmltree.Dewey{9},
		Matches: []query.Match{{ID: xmltree.Dewey{9, 0}}},
	})
	if j.Relevant {
		t.Error("unresolvable match judged relevant")
	}
	// Fewer matches than keywords.
	j = o.JudgeResult(corpus, []query.Keyword{"a", "b"}, query.Result{})
	if j.Relevant {
		t.Error("missing matches judged relevant")
	}
}

func TestNodeConceptEdgeCases(t *testing.T) {
	ont := genOntology(t)
	o := NewOracle(ont)
	// Node referencing an unknown system.
	n := &xmltree.Node{Tag: "value"}
	n.SetAttr("code", "195967001")
	n.SetAttr("codeSystem", "9.9.9.unknown")
	if got := o.nodeConcept(n); got != 0 {
		t.Errorf("foreign-system node resolved to %d", got)
	}
	// Node referencing a dangling code within the right system.
	n2 := &xmltree.Node{Tag: "value"}
	n2.SetAttr("code", "does-not-exist")
	n2.SetAttr("codeSystem", ont.SystemID)
	if got := o.nodeConcept(n2); got != 0 {
		t.Errorf("dangling code resolved to %d", got)
	}
	// Non-code node.
	if got := o.nodeConcept(&xmltree.Node{Tag: "title"}); got != 0 {
		t.Errorf("non-code node resolved to %d", got)
	}
}
