// Benchmarks regenerating the paper's evaluation artifacts (one per
// table and figure, Section VII) plus the ablations DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// The cmd/experiments binary prints the same measurements as formatted
// tables; these benches put them under the testing.B methodology.
package xontorank

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/experiments"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/serving"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// benchSearchKeywords answers a pre-parsed query through the
// consolidated Query API (benchmarks never cancel, so the context
// error cannot occur).
func benchSearchKeywords(sys *core.System, keywords []query.Keyword, k int) []core.Result {
	resp, err := sys.Query(context.Background(), core.SearchRequest{Keywords: keywords, K: k})
	if err != nil {
		return nil
	}
	return resp.Results
}

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.Small)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1Survey regenerates Table I: the relevance-survey
// protocol (top-5 per approach per query, judged by the simulated
// expert oracle) over the 11-query workload.
func BenchmarkTable1Survey(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := env.Table1()
		if len(res.Rows) != len(experiments.Table1Queries) {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2KendallTau regenerates Table II: pairwise normalized
// top-10 Kendall tau between the four approaches over 20 queries.
func BenchmarkTable2KendallTau(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := env.Table2()
		if len(res.Distance) != 4 {
			b.Fatal("table 2 incomplete")
		}
	}
}

// BenchmarkTable3IndexCreation regenerates Table III: full XOnto-DIL
// index creation per approach (full-text stage, OntoScore stage, DIL
// stage) over the standing vocabulary.
func BenchmarkTable3IndexCreation(b *testing.B) {
	env := benchEnvironment(b)
	for _, s := range ontoscore.Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			sys := env.Systems[s]
			vocab := sys.Builder().Vocabulary(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, stats, err := sys.Builder().Build(vocab)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.TotalPostings), "postings")
				b.ReportMetric(stats.AvgPostings(), "postings/kw")
				b.ReportMetric(stats.AvgBytes()/1024, "KB/kw")
				_ = ix
			}
		})
	}
}

// BenchmarkFigure11QueryTime regenerates Figure 11: query execution
// time against keyword count (1-4) per approach, with prebuilt
// indexes.
func BenchmarkFigure11QueryTime(b *testing.B) {
	env := benchEnvironment(b)
	for _, s := range ontoscore.Strategies() {
		sys := env.Systems[s]
		if sys.BuildStats() == nil {
			if _, err := sys.BuildIndex(); err != nil {
				b.Fatal(err)
			}
		}
		for _, n := range []int{1, 2, 3, 4} {
			queries := experiments.QueriesWithKeywordCount(n, 5)
			parsed := make([][]query.Keyword, len(queries))
			for i, q := range queries {
				parsed[i] = query.ParseQuery(q)
				benchSearchKeywords(sys, parsed[i], 10) // warm on-demand keywords
			}
			b.Run(fmt.Sprintf("%s/keywords=%d", s, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSearchKeywords(sys, parsed[i%len(parsed)], 10)
				}
			})
		}
	}
}

// BenchmarkAblationMergedBFS compares the Observation-1 merged
// expansion against the naive one-BFS-per-seed evaluation.
func BenchmarkAblationMergedBFS(b *testing.B) {
	env := benchEnvironment(b)
	computer := ontoscore.NewComputer(env.Ont, ontoscore.DefaultParams())
	kw := "structure" // many seeds
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(computer.Graph(kw)) == 0 {
				b.Fatal("no scores")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(computer.GraphNaive(kw)) == 0 {
				b.Fatal("no scores")
			}
		}
	})
}

// BenchmarkAblationThreshold sweeps the pruning threshold, reporting
// OntoScore-map volume.
func BenchmarkAblationThreshold(b *testing.B) {
	env := benchEnvironment(b)
	for _, th := range []float64{0.01, 0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("threshold=%.2f", th), func(b *testing.B) {
			params := ontoscore.DefaultParams()
			params.Threshold = th
			computer := ontoscore.NewComputer(env.Ont, params)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := ontoscore.BuildMap(computer, ontoscore.StrategyRelationships, experiments.AblationKeywords)
				b.ReportMetric(float64(m.Entries()), "entries")
			}
		})
	}
}

// BenchmarkAblationDecay sweeps the Graph decay, reporting reach.
func BenchmarkAblationDecay(b *testing.B) {
	env := benchEnvironment(b)
	for _, d := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("decay=%.1f", d), func(b *testing.B) {
			params := ontoscore.DefaultParams()
			params.Decay = d
			computer := ontoscore.NewComputer(env.Ont, params)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := ontoscore.BuildMap(computer, ontoscore.StrategyGraph, experiments.AblationKeywords)
				b.ReportMetric(float64(m.Entries()), "entries")
			}
		})
	}
}

// servingBench builds a serving layer over the Relationships system of
// the shared benchmark environment, with explicit bounds so runs are
// comparable across machines.
func servingBench(b *testing.B, cfg serving.Config) *serving.Service[[]core.Result] {
	env := benchEnvironment(b)
	sys := env.Systems[ontoscore.StrategyRelationships]
	return serving.NewService(cfg, func(ctx context.Context, req serving.Request) ([]core.Result, error) {
		resp, err := sys.Query(ctx, core.SearchRequest{Query: req.Query, K: req.Offset + req.K})
		if err != nil {
			return nil, err
		}
		return resp.Results, nil
	})
}

// BenchmarkServingCacheHit measures the serving fast path: a repeated
// identical query answered from the sharded LRU without touching the
// engine.
func BenchmarkServingCacheHit(b *testing.B) {
	svc := servingBench(b, serving.DefaultConfig())
	req := serving.Request{Strategy: "Relationships", Query: "cardiac arrest", K: 10}
	if _, err := svc.Search(context.Background(), req); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Search(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.Stats().Snapshot().CacheHits), "hits")
}

// BenchmarkServingCacheMiss measures the full serving path on a cold
// cache: a capacity-2 cache cycled over more queries than it holds, so
// every request goes admission → singleflight → engine.
func BenchmarkServingCacheMiss(b *testing.B) {
	cfg := serving.DefaultConfig()
	cfg.CacheCapacity = 2
	svc := servingBench(b, cfg)
	queries := experiments.QueriesWithKeywordCount(2, 6)
	for _, q := range queries { // warm the engine's keyword DILs only
		if _, err := svc.Search(context.Background(), serving.Request{Query: query.Normalize(q), K: 10}); err != nil {
			b.Fatal(err)
		}
	}
	svc.Cache().Purge()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := serving.Request{Query: query.Normalize(queries[i%len(queries)]), K: 10}
		if _, err := svc.Search(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingParallelLoad drives the serving layer from all
// benchmark procs at once over a small hot query set — the
// concurrent-load profile the admission and cache layers exist for.
func BenchmarkServingParallelLoad(b *testing.B) {
	svc := servingBench(b, serving.DefaultConfig())
	queries := experiments.QueriesWithKeywordCount(2, 4)
	reqs := make([]serving.Request, len(queries))
	for i, q := range queries {
		reqs[i] = serving.Request{Strategy: "Relationships", Query: query.Normalize(q), K: 10}
		if _, err := svc.Search(context.Background(), reqs[i]); err != nil { // warm
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := svc.Search(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	snap := svc.Stats().Snapshot()
	b.ReportMetric(float64(snap.Shed), "shed")
	b.ReportMetric(snap.Latency.P99Ms, "p99ms")
}

// BenchmarkRankedTopK compares XRANK's two query algorithms on the same
// lists: the serving top-k merge (DIL, query.RunLists) vs ranked access
// with early termination (RDIL, internal/experiments), for small and
// large k.
func BenchmarkRankedTopK(b *testing.B) {
	env := benchEnvironment(b)
	sys := env.Systems[ontoscore.StrategyGraph]
	builder := sys.Builder()
	lists := []*dil.CompactList{
		dil.Compact(builder.BuildKeyword("cardiac"), builder.IDs()),
		dil.Compact(builder.BuildKeyword("arrest"), builder.IDs()),
	}
	for _, l := range lists {
		if l.Len() == 0 {
			b.Fatal("empty list")
		}
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("DIL/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(query.RunLists(lists, 0.5, k)) == 0 {
					b.Fatal("no results")
				}
			}
		})
		b.Run(fmt.Sprintf("RDIL/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(experiments.RunRanked(lists, 0.5, k)) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}
