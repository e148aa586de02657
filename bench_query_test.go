package xontorank_test

import (
	"context"
	"testing"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/query"
)

// BenchmarkQueryMerge times System.Query on the served merge shape:
// the seed-1 benchmark corpus (800 generated documents plus Figure 1),
// the serving ontology collection and default configuration, every
// keyword of the merge vocabulary warm in the keyword cache, and
// requests of 2–3 co-occurring terms of one document (k = 10 or 100,
// some on a deep page). One op is one request; search_us/op and
// hydrate_us/op split it into the query phase (merge) and hydration,
// and postings/op counts the postings the merge scored.
func BenchmarkQueryMerge(b *testing.B) {
	d, err := workload.Generate(1, workload.Full)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewMulti(d.Corpus, ontology.MustCollection(d.Ont, ontology.LOINCFragment()), core.DefaultConfig())
	ctx := context.Background()
	for _, rq := range d.MergeWarm() {
		if _, err := sys.Query(ctx, core.SearchRequest{Query: rq.Query, K: rq.K}); err != nil {
			b.Fatal(err)
		}
	}
	reqs := d.Merge(1024)
	b.ReportAllocs()
	before := query.MergeCountersSnapshot()
	b.ResetTimer()
	var search, hydrate int64
	for i := 0; i < b.N; i++ {
		rq := reqs[i%len(reqs)]
		resp, err := sys.Query(ctx, core.SearchRequest{Query: rq.Query, K: rq.K, Offset: rq.Offset})
		if err != nil {
			b.Fatal(err)
		}
		search += resp.Timing.SearchUS
		hydrate += resp.Timing.HydrateUS
	}
	b.ReportMetric(float64(query.MergeCountersSnapshot().Postings-before.Postings)/float64(b.N), "postings/op")
	b.ReportMetric(float64(search)/float64(b.N), "search_us/op")
	b.ReportMetric(float64(hydrate)/float64(b.N), "hydrate_us/op")
}
