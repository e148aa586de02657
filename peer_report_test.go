package xontorank

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/peer"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// peerBenchFederation builds a loopback HTTP federation over the
// benchmark corpus: one local slot plus two peer nodes behind httptest
// servers, fresh clients per call so hedge trackers and transport
// counters start cold. The hot query set is warmed far enough to fill
// each peer's p95 latency ring.
func peerBenchFederation(tb testing.TB, env *experiments.Env, hedgeAfter time.Duration) (*shard.Sharded, []core.SearchRequest, []*peer.Client) {
	tb.Helper()
	coll := ontology.MustCollection(env.Ont)
	views := make([]*xmltree.Corpus, 3)
	for i := range views {
		views[i] = xmltree.NewCorpus()
	}
	for i, doc := range env.Corpus.Docs() {
		views[i%3].AddExisting(doc)
	}
	clients := make([]*peer.Client, 0, 2)
	for i := 1; i <= 2; i++ {
		systems := make(map[string]*core.System, 4)
		for _, st := range ontoscore.Strategies() {
			cfg := core.DefaultConfig()
			cfg.Strategy = st
			systems[st.String()] = core.NewMulti(views[i], coll, cfg)
		}
		h := peer.NewHandler(peer.HandlerConfig{Source: peer.FixedSource(systems, uint64(i))})
		h.WireGeneration(systems)
		mux := http.NewServeMux()
		h.Register(mux)
		srv := httptest.NewServer(mux)
		tb.Cleanup(srv.Close)
		c, err := peer.NewClient(srv.URL, peer.Options{
			Timeout:    2 * time.Second,
			HedgeAfter: hedgeAfter,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(c.Close)
		clients = append(clients, c)
	}
	cluster := shard.New(views[0], ontoscore.NewSide(coll, core.DefaultConfig().DIL.Onto), shard.Config{
		Shards: 1,
		Peers:  clients,
		Core:   core.DefaultConfig(),
	})
	sys := cluster.System(ontoscore.StrategyRelationships)
	queries := experiments.QueriesWithKeywordCount(2, 6)
	reqs := make([]core.SearchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = core.SearchRequest{Keywords: query.ParseQuery(q), K: 10}
	}
	// Fill keyword caches and each peer's latency ring (the p95 tracker
	// wants 16 samples before it trusts itself).
	for pass := 0; pass < 3; pass++ {
		for _, req := range reqs {
			if _, err := sys.Query(context.Background(), req); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sys, reqs, clients
}

// TestWriteBenchPeerReport regenerates BENCH_PEER.json: federated
// search latency under parallel load for three transport profiles — a
// healthy network, a slow-peer tail (a few percent of peer RPCs stall),
// and the same tail with hedged requests — with the hedging ledger
// from the client counters. Gated so normal test runs stay fast:
//
//	BENCH_PEER=1 go test -run TestWriteBenchPeerReport .
//
// or `make bench-peer-report`.
func TestWriteBenchPeerReport(t *testing.T) {
	if os.Getenv("BENCH_PEER") == "" {
		t.Skip("set BENCH_PEER=1 to regenerate BENCH_PEER.json")
	}
	env, err := experiments.NewEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers      = 8
		perWorkerOps = 250
		tailDelay    = 50 * time.Millisecond
		tailProb     = 0.04
		hedgeFloor   = 2 * time.Millisecond
	)
	type row struct {
		Config       string  `json:"config"`
		HedgeAfterUS int64   `json:"hedge_after_us"`
		Workers      int     `json:"workers"`
		Ops          int     `json:"ops"`
		P50US        int64   `json:"p50_us"`
		P99US        int64   `json:"p99_us"`
		MeanUS       int64   `json:"mean_us"`
		QPS          float64 `json:"qps"`
		Hedges       int64   `json:"hedges"`
		HedgesWon    int64   `json:"hedges_won"`
		HedgesWasted int64   `json:"hedges_wasted"`
	}
	report := struct {
		Description string  `json:"description"`
		CPU         string  `json:"cpu"`
		GoVersion   string  `json:"go_version"`
		Documents   int     `json:"documents"`
		TailDelayUS int64   `json:"tail_delay_us"`
		TailProb    float64 `json:"tail_prob"`
		Rows        []row   `json:"rows"`
	}{
		Description: "federated (1 local + 2 HTTP peers) search latency under " +
			"parallel load: healthy network, injected slow-peer tail, and the " +
			"same tail with hedged requests; regenerate with `make bench-peer-report`",
		CPU:         runtime.GOARCH,
		GoVersion:   runtime.Version(),
		Documents:   env.Corpus.Len(),
		TailDelayUS: tailDelay.Microseconds(),
		TailProb:    tailProb,
	}

	cases := []struct {
		name  string
		tail  bool
		hedge time.Duration
	}{
		{"healthy", false, 0},
		{"slow-peer-tail", true, 0},
		{"slow-peer-tail+hedge", true, hedgeFloor},
	}
	for _, tc := range cases {
		sys, reqs, clients := peerBenchFederation(t, env, tc.hedge)
		if tc.tail {
			// Armed after setup and warmup so only the measured window
			// sees the tail; the seed keeps the slow-request pattern
			// identical between the hedged and un-hedged runs.
			faultinject.Enable(peer.FPLatency, faultinject.Spec{
				Mode: faultinject.ModeLatency, Delay: tailDelay, Prob: tailProb, Seed: 42,
			})
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
		faultinject.Disable(peer.FPLatency)

		var all []int64
		for _, s := range samples {
			all = append(all, s...)
		}
		if len(all) != workers*perWorkerOps {
			t.Fatalf("%s: %d samples, want %d (a worker hit an error)",
				tc.name, len(all), workers*perWorkerOps)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum int64
		for _, v := range all {
			sum += v
		}
		r := row{
			Config:       tc.name,
			HedgeAfterUS: tc.hedge.Microseconds(),
			Workers:      workers,
			Ops:          len(all),
			P50US:        all[len(all)/2],
			P99US:        all[len(all)*99/100],
			MeanUS:       sum / int64(len(all)),
			QPS:          round2(float64(len(all)) / elapsed.Seconds()),
		}
		for _, pc := range clients {
			m := pc.Metrics()
			r.Hedges += m.Hedges
			r.HedgesWon += m.HedgesWon
			r.HedgesWasted += m.HedgesWasted
		}
		if tc.hedge > 0 && r.Hedges == 0 {
			t.Errorf("%s: tail armed with hedging on, but no hedge ever fired", tc.name)
		}
		report.Rows = append(report.Rows, r)
		t.Logf("%s: p50=%dµs p99=%dµs hedges=%d won=%d wasted=%d",
			tc.name, r.P50US, r.P99US, r.Hedges, r.HedgesWon, r.HedgesWasted)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PEER.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_PEER.json (%d rows)", len(report.Rows))
}
