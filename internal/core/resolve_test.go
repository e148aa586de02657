package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// checkPaths requires every hydrated path of a response to equal the
// path NodeAt resolves for the same identifier, and reports how many
// results have a match on the result root itself.
func checkPaths(t *testing.T, label string, sys *core.System, results []core.Result) (rootMatches int) {
	t.Helper()
	for i, r := range results {
		n := sys.NodeAt(r.Root)
		if n == nil {
			t.Fatalf("%s: result %d root %v does not resolve", label, i, r.Root)
		}
		if r.Path != n.Path() {
			t.Fatalf("%s: result %d path %q, NodeAt gives %q", label, i, r.Path, n.Path())
		}
		for j, m := range r.Matches {
			mn := sys.NodeAt(m.ID)
			if mn == nil {
				t.Fatalf("%s: result %d match %d (%v) does not resolve", label, i, j, m.ID)
			}
			if m.Path != mn.Path() {
				t.Fatalf("%s: result %d match %d path %q, NodeAt gives %q", label, i, j, m.Path, mn.Path())
			}
			if m.ID.Equal(r.Root) {
				rootMatches++
			}
		}
	}
	return rootMatches
}

// Hydration walks each result root once and continues each match from
// it; bench/golden.json pins identifiers, scores and documents only, so
// this is what pins the paths: they must equal NodeAt(id).Path() on the
// experiment corpora under every strategy, for matches on the root
// itself and below it, and for a live delta document served through
// the auxiliary document source.
func TestResolvePathsMatchNodePath(t *testing.T) {
	queries := append(append([]string{"asthma", "theophylline"}, experiments.Table1Queries...),
		experiments.Table2Queries...)
	ctx := context.Background()
	for _, scale := range []experiments.Scale{experiments.Small, experiments.Medium} {
		env, err := experiments.NewEnv(scale)
		if err != nil {
			t.Fatal(err)
		}
		rootMatches, results := 0, 0
		for _, st := range ontoscore.Strategies() {
			sys := env.Systems[st]
			for _, q := range queries {
				resp, err := sys.Query(ctx, core.SearchRequest{Query: q, K: 100})
				if err != nil {
					t.Fatal(err)
				}
				results += len(resp.Results)
				rootMatches += checkPaths(t, scale.Name+"/"+st.String()+"/"+q, sys, resp.Results)
			}
		}
		if results == 0 || rootMatches == 0 {
			t.Fatalf("%s: %d results, %d matches on their own root; want both > 0", scale.Name, results, rootMatches)
		}
	}

	// A live copy of Figure 1 answers beside the base one; its paths
	// resolve through the delta segment.
	env, err := experiments.NewEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	st := ontoscore.StrategyRelationships
	sys := env.Systems[st]
	seg := delta.NewSegment(sys.Corpus(), sys.Builder().LocalTextStats(), sys.Builder().Side(),
		delta.Config{Strategies: []ontoscore.Strategy{st}, DIL: sys.Config().DIL})
	sys.SetOverlay(seg.Overlay(st, -1, nil))
	sys.SetAuxDocs(seg)
	docs := env.Corpus.Docs()
	var body bytes.Buffer
	if err := xmltree.WriteXML(&body, docs[len(docs)-1].Root); err != nil {
		t.Fatal(err)
	}
	if err := seg.Apply(delta.Op{Seq: 1, Kind: delta.OpPut, Name: "live-figure-1", Body: body.Bytes()}); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, q := range queries {
		resp, err := sys.Query(ctx, core.SearchRequest{Query: q, K: 100})
		if err != nil {
			t.Fatal(err)
		}
		checkPaths(t, "delta/"+q, sys, resp.Results)
		for _, r := range resp.Results {
			if env.Corpus.Doc(r.Root.DocID()) == nil && seg.AuxDoc(r.Root.DocID()) != nil {
				live++
			}
		}
	}
	if live == 0 {
		t.Fatal("no result in the live delta document")
	}
}
