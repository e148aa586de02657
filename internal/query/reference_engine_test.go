package query_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dil"
	"repro/internal/experiments"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// The default engine path — compact lists streamed zero-copy through
// the loser-tree merge with block-max top-k pruning, then paged — must
// answer exactly like the paper's merge: the reference runDIL over the
// same keyword lists, ranked, truncated to k+offset, and paged.
func TestEngineMatchesReference(t *testing.T) {
	scales := []experiments.Scale{experiments.Small}
	if !testing.Short() {
		scales = append(scales, experiments.Medium)
	}
	queries := append(append([]string{}, experiments.Table1Queries...), experiments.Table2Queries...)
	for _, scale := range scales {
		t.Run(scale.Name, func(t *testing.T) {
			env, err := experiments.NewEnv(scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range ontoscore.Strategies() {
				sys := env.Systems[st]
				params := sys.Config().Query
				ix := dil.NewIndex()
				entries := map[query.Keyword][]query.Entry{}
				b := sys.Builder()
				for _, q := range queries {
					for _, kw := range query.ParseQuery(q) {
						if _, ok := entries[kw]; !ok {
							l := b.BuildKeyword(string(kw))
							entries[kw] = query.EntriesOf(b.IDs(), l)
							ix.Set(string(kw), dil.Compact(l, b.IDs()))
						}
					}
				}
				e := query.NewEngine(ix, nil, params)
				for _, q := range queries {
					kws := query.ParseQuery(q)
					lists := make([][]query.Entry, len(kws))
					for i, kw := range kws {
						lists[i] = entries[kw]
					}
					for _, k := range []int{1, 10, 100} {
						for _, offset := range []int{0, 5} {
							resp, err := e.Query(context.Background(), query.Request{Keywords: kws, K: k, Offset: offset})
							if err != nil {
								t.Fatal(err)
							}
							want := query.Page(query.RankTruncate(query.RunDIL(lists, params.Decay), k+offset), offset)
							query.ResultsEqual(t, fmt.Sprintf("%s %q k=%d offset=%d", st, q, k, offset), want, resp.Results)
						}
					}
				}
			}
		})
	}
}
