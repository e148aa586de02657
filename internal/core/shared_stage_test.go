package core_test

import (
	"context"
	"reflect"
	"testing"

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
						req := core.SearchRequest{Query: q, K: w.k, Offset: w.offset}
						got, err := shared.Query(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						want, err := alone.Query(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Info, want.Info) {
							t.Fatalf("%s %q k=%d offset=%d: shared-stage system answers differently\n got %+v\nwant %+v",
								st, q, w.k, w.offset, got.Results, want.Results)
						}
					}
				}
			}
		})
	}
}
