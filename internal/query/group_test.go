package query

import (
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func TestGroupResultsCollapsesStructure(t *testing.T) {
	// A multi-patient corpus yields many structurally identical results
	// for a common query; grouping collapses them.
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 44, ExtraConcepts: 50})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 44, NumDocuments: 25, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	b := dil.NewBuilder(corpus, ont, ontoscore.StrategyGraph, dil.DefaultParams())
	e := NewEngine(dil.NewIndex(), b, DefaultParams())
	kws := ParseQuery("cardiac arrest")
	results := search(e, kws, 50)
	if len(results) < 5 {
		t.Fatalf("only %d results; workload too sparse for grouping test", len(results))
	}
	groups := GroupResults(corpus, results)
	if len(groups) >= len(results) {
		t.Errorf("grouping did not collapse anything: %d groups for %d results",
			len(groups), len(results))
	}
	// Membership partitions the result list and preserves rank order.
	total := 0
	for _, grp := range groups {
		total += len(grp.Results)
		if grp.Path == "" {
			t.Error("unresolvable result path in corpus-backed search")
		}
		best := grp.Best()
		for _, r := range grp.Results {
			if r.Score > best.Score {
				t.Errorf("group %q: member outranks Best", grp.Path)
			}
		}
		// All members share the path.
		for _, r := range grp.Results {
			if n := corpus.NodeAt(r.Root); n != nil && n.Path() != grp.Path {
				t.Errorf("member path %q in group %q", n.Path(), grp.Path)
			}
		}
	}
	if total != len(results) {
		t.Errorf("groups cover %d of %d results", total, len(results))
	}
	// Groups ordered by best member: first group's best is the global top.
	if !groups[0].Best().Root.Equal(results[0].Root) {
		t.Error("first group does not contain the top result")
	}
}

func TestGroupResultsDegenerate(t *testing.T) {
	corpus := xmltree.NewCorpus()
	if got := GroupResults(corpus, nil); got != nil {
		t.Errorf("empty results grouped: %v", got)
	}
	// Unresolvable roots fall into the empty-path group.
	groups := GroupResults(corpus, []Result{{Root: xmltree.Dewey{7}}})
	if len(groups) != 1 || groups[0].Path != "" || len(groups[0].Results) != 1 {
		t.Errorf("groups = %+v", groups)
	}
	var empty ResultGroup
	if empty.Best().Score != 0 {
		t.Error("Best of empty group not zero")
	}
}
