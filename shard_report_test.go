package xontorank

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/shard"
)

// shardBenchCluster partitions the shared benchmark corpus into n
// shards and warms the hot query set so measurements see steady-state
// keyword caches, like the serving benches do.
func shardBenchCluster(tb testing.TB, env *experiments.Env, n int) (*shard.Sharded, []core.SearchRequest) {
	tb.Helper()
	cluster := shard.New(env.Corpus, ontoscore.NewSide(ontology.MustCollection(env.Ont), core.DefaultConfig().DIL.Onto), shard.Config{
		Shards: n,
		Core:   core.DefaultConfig(),
	})
	sys := cluster.System(ontoscore.StrategyRelationships)
	queries := experiments.QueriesWithKeywordCount(2, 6)
	reqs := make([]core.SearchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = core.SearchRequest{Keywords: query.ParseQuery(q), K: 10}
		if _, err := sys.Query(context.Background(), reqs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return sys, reqs
}

// BenchmarkShardedSearch drives scatter-gather search under parallel
// load for each shard count, the coordinator overhead profile behind
// BENCH_SHARD.json.
func BenchmarkShardedSearch(b *testing.B) {
	env := benchEnvironment(b)
	for _, n := range []int{1, 2, 4, 8} {
		sys, reqs := shardBenchCluster(b, env, n)
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					resp, err := sys.Query(context.Background(), reqs[i%len(reqs)])
					if err != nil {
						b.Fatal(err)
					}
					if resp.Partial {
						b.Fatal("partial answer on a healthy cluster")
					}
					i++
				}
			})
		})
	}
}

// TestWriteShardBenchReport regenerates BENCH_SHARD.json: shard count
// against p50/p99 scatter-gather latency under parallel load (raw
// samples, since testing.Benchmark only reports means). Gated so
// normal test runs stay fast:
//
//	BENCH_SHARD=1 go test -run TestWriteShardBenchReport .
//
// or `make bench-shard-report`.
func TestWriteShardBenchReport(t *testing.T) {
	if os.Getenv("BENCH_SHARD") == "" {
		t.Skip("set BENCH_SHARD=1 to regenerate BENCH_SHARD.json")
	}
	env, err := experiments.NewEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers      = 8
		perWorkerOps = 300
		warmupPerReq = 2
	)
	type row struct {
		Shards  int     `json:"shards"`
		Workers int     `json:"workers"`
		Ops     int     `json:"ops"`
		P50US   int64   `json:"p50_us"`
		P99US   int64   `json:"p99_us"`
		MeanUS  int64   `json:"mean_us"`
		QPS     float64 `json:"qps"`
	}
	report := struct {
		Description string `json:"description"`
		CPU         string `json:"cpu"`
		GoVersion   string `json:"go_version"`
		Documents   int    `json:"documents"`
		Rows        []row  `json:"rows"`
	}{
		Description: "scatter-gather search latency under parallel load by shard " +
			"count (per-query wall time, raw-sample percentiles); " +
			"regenerate with `make bench-shard-report`",
		CPU:       runtime.GOARCH,
		GoVersion: runtime.Version(),
		Documents: env.Corpus.Len(),
	}

	for _, n := range []int{1, 2, 4, 8} {
		sys, reqs := shardBenchCluster(t, env, n)
		for w := 0; w < warmupPerReq; w++ {
			for _, req := range reqs {
				if _, err := sys.Query(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
		}
		samples := make([][]int64, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := make([]int64, 0, perWorkerOps)
				for i := 0; i < perWorkerOps; i++ {
					req := reqs[(w+i)%len(reqs)]
					t0 := time.Now()
					if _, err := sys.Query(context.Background(), req); err != nil {
						return // surfaces below as a short sample set
					}
					local = append(local, time.Since(t0).Microseconds())
				}
				samples[w] = local
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)

		var all []int64
		for _, s := range samples {
			all = append(all, s...)
		}
		if len(all) != workers*perWorkerOps {
			t.Fatalf("shards=%d: %d samples, want %d (a worker hit an error)",
				n, len(all), workers*perWorkerOps)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum int64
		for _, v := range all {
			sum += v
		}
		report.Rows = append(report.Rows, row{
			Shards:  n,
			Workers: workers,
			Ops:     len(all),
			P50US:   all[len(all)/2],
			P99US:   all[len(all)*99/100],
			MeanUS:  sum / int64(len(all)),
			QPS:     round2(float64(len(all)) / elapsed.Seconds()),
		})
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_SHARD.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_SHARD.json (%d rows)", len(report.Rows))
}
