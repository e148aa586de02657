package shard

import (
	"sync"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// testCorpus builds a corpus large enough that every shard of an
// 8-way partition holds documents: the Figure 1 record plus generated
// CDA documents with stable names (the shard hash keys on names).
func testCorpus(t *testing.T, docs int, seed int64) (*xmltree.Corpus, *ontology.Collection) {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: seed, ExtraConcepts: 80, SynonymProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	corpus := xmltree.NewCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(fig1)
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: seed, NumDocuments: docs, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.GenerateCorpus().Docs() {
		corpus.Add(&xmltree.Document{Root: d.Root, Name: d.Name})
	}
	return corpus, ontology.MustCollection(ont, ontology.LOINCFragment())
}

// testQueries covers single keywords, multi-keyword conjunctions,
// phrases, ontology-heavy terms, and a miss.
var testQueries = []string{
	"asthma",
	"asthma medications",
	`"bronchial structure" theophylline`,
	"cardiac arrest",
	"patient problems procedure",
	"zzznothing",
}

func testCluster(t *testing.T, corpus *xmltree.Corpus, coll *ontology.Collection, cfg Config) *Cluster {
	t.Helper()
	cfg.Core = core.DefaultConfig()
	if cfg.Logf == nil {
		cfg.Logf = testLogf(t)
	}
	return New(corpus, testSide(coll), cfg)
}

// testLogf forwards a cluster's log lines to t until the test's
// cleanup runs. A shard leg abandoned by a returned search can release
// a superseded generation, and log its drain, after the test is over;
// t.Logf then would panic.
func testLogf(t *testing.T) func(format string, args ...any) {
	var (
		mu   sync.Mutex
		done bool
	)
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// testSide builds the collection's ontology side under the default
// OntoScore parameters (nil for a nil collection: Reload keeps the
// current side).
func testSide(coll *ontology.Collection) *ontoscore.Side {
	if coll == nil {
		return nil
	}
	return ontoscore.NewSide(coll, core.DefaultConfig().DIL.Onto)
}
