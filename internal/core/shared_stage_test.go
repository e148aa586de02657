package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ontoscore"
)

// The sharing differential: the four systems NewSystems builds over one
// full-text stage answer exactly like four systems that each ran the
// stage for themselves — roots, scores, matches, paths, degradation
// info, on every paging window, under both the DIL and the RDIL
// algorithm.
func TestSharedStageSystemsMatchIndependentSystems(t *testing.T) {
	scales := []experiments.Scale{experiments.Small}
	if !testing.Short() {
		scales = append(scales, experiments.Medium)
	}
	windows := []struct{ k, offset int }{{10, 0}, {3, 0}, {3, 3}, {5, 7}, {100, 0}}
	for _, scale := range scales {
		t.Run(scale.Name, func(t *testing.T) {
			env, err := experiments.NewEnv(scale)
			if err != nil {
				t.Fatal(err)
			}
			queries := append(append([]string{}, experiments.Table1Queries...), experiments.Table2Queries...)
			for _, st := range ontoscore.Strategies() {
				shared := env.Systems[st] // NewEnv builds through NewSystems
				cfg := shared.Config()
				alone := core.New(env.Corpus, env.Ont, cfg)
				for _, q := range queries {
					for _, w := range windows {
						for _, ranked := range []bool{false, true} {
							req := core.SearchRequest{Query: q, K: w.k, Offset: w.offset, Ranked: ranked}
							got, err := shared.Query(context.Background(), req)
							if err != nil {
								t.Fatal(err)
							}
							want, err := alone.Query(context.Background(), req)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Info, want.Info) {
								t.Fatalf("%s %q k=%d offset=%d ranked=%v: shared-stage system answers differently\n got %+v\nwant %+v",
									st, q, w.k, w.offset, ranked, got.Results, want.Results)
							}
						}
					}
				}
			}
		})
	}
}

// AddDocument on a system whose stage is shared is copy-on-write: that
// system sees the new document (and then equals a system built fresh
// over the extended corpus), the other three go on answering from the
// old stage.
func TestAddDocumentOnSharedStageIsCopyOnWrite(t *testing.T) {
	env, err := experiments.NewEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	const q, added = "asthma theophylline", ontoscore.StrategyRelationships
	answers := func(s *core.System) []core.Result {
		resp, err := s.Query(context.Background(), core.SearchRequest{Query: q, K: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Results
	}
	before := map[ontoscore.Strategy][]core.Result{}
	for st, s := range env.Systems {
		before[st] = answers(s)
	}

	for i := 0; i < 2; i++ { // the second add takes the incremental path
		fig1, err := cda.GenerateFigure1(env.Ont)
		if err != nil {
			t.Fatal(err)
		}
		doc := env.Systems[added].AddDocument(fig1)
		found := false
		for _, r := range answers(env.Systems[added]) {
			found = found || r.Root.DocID() == doc.ID
		}
		if !found {
			t.Fatalf("add %d: the system the document was added to does not find it", i)
		}
	}
	fresh := core.New(env.Corpus, env.Ont, env.Systems[added].Config())
	if got, want := answers(env.Systems[added]), answers(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("after AddDocument the system differs from one built over the extended corpus\n got %+v\nwant %+v", got, want)
	}
	for st, s := range env.Systems {
		if st == added {
			continue
		}
		if got := answers(s); !reflect.DeepEqual(got, before[st]) {
			t.Errorf("%s moved when a document was added to %s", st, added)
		}
	}
}
