package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ontoscore"
)

// After a full rolling reload the cluster answers exactly like a
// single-node system over the new corpus — routing, statistics, and
// calibration all follow the swap.
func TestReloadEquivalence(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 21)
	cluster := testCluster(t, corpus, coll, Config{Shards: 4})
	next, nextColl := testCorpus(t, 14, 22)
	results := cluster.Reload(context.Background(), next, testSide(nextColl))
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("shard %d reload failed: %s", r.Shard, r.Error)
		}
	}
	if got := cluster.Documents(); got != next.Len() {
		t.Fatalf("cluster serves %d documents after reload, want %d", got, next.Len())
	}
	cfg := core.DefaultConfig()
	single := core.NewMulti(next, nextColl, cfg)
	for _, q := range testQueries {
		req := core.SearchRequest{Query: q, K: 10, Explain: true}
		want, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.System(ontoscore.StrategyRelationships).Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "post-reload/"+q, want, got)
	}
}

// A reload that fails mid-swap leaves only the failed shard on its
// previous generation; the others advance, queries keep answering
// (mixed generations), and the next clean reload converges everything.
func TestReloadMidSwapFailure(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 31)
	cluster := testCluster(t, corpus, coll, Config{Shards: 4})
	before := cluster.Statuses()

	next, nextColl := testCorpus(t, 12, 32)
	// Fail exactly the second shard's swap (FPReload fires in shard
	// order): shard 0 passes, shard 1 trips, shards 2-3 pass.
	faultinject.Enable(FPReload, faultinject.Spec{Mode: faultinject.ModeError, After: 1, Count: 1})
	results := cluster.Reload(context.Background(), next, testSide(nextColl))
	faultinject.DisableAll()

	for _, r := range results {
		if r.Shard == 1 {
			if r.Error == "" {
				t.Fatal("shard 1 swap should have failed")
			}
			if r.Generation != before[1].Generation {
				t.Fatalf("failed shard moved to generation %d, had %d", r.Generation, before[1].Generation)
			}
		} else if r.Error != "" {
			t.Fatalf("shard %d swap failed: %s", r.Shard, r.Error)
		} else if r.Generation <= before[r.Shard].Generation {
			t.Fatalf("shard %d did not advance: generation %d", r.Shard, r.Generation)
		}
	}

	// Mixed generations still serve every query without errors.
	for _, q := range testQueries {
		resp, err := cluster.System(ontoscore.StrategyRelationships).Query(context.Background(),
			core.SearchRequest{Query: q, K: 10})
		if err != nil {
			t.Fatalf("%q on mixed generations: %v", q, err)
		}
		if resp.Partial {
			t.Fatalf("%q on mixed generations answered partial", q)
		}
	}

	// A clean reload converges: all shards advance and single-node
	// equivalence over the new corpus is restored.
	for _, r := range cluster.Reload(context.Background(), next, testSide(nextColl)) {
		if r.Error != "" {
			t.Fatalf("convergence reload: shard %d: %s", r.Shard, r.Error)
		}
	}
	single := core.NewMulti(next, nextColl, core.DefaultConfig())
	for _, q := range testQueries {
		req := core.SearchRequest{Query: q, K: 10}
		want, _ := single.Query(context.Background(), req)
		got, err := cluster.System(ontoscore.StrategyRelationships).Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "converged/"+q, want, got)
	}
}

// The race-lane stress: scatter-gather queries, hydration, and status
// probes run continuously while the cluster reloads repeatedly —
// including a reload whose middle shard fails its swap. Every query
// must answer (full, never partial: reloads are not a failure path),
// and every hydration must come from the generation that produced the
// result. Run under -race this exercises the pin/swap/release
// lifecycle across all shards.
func TestConcurrentReloadRace(t *testing.T) {
	corpusA, collA := testCorpus(t, 10, 41)
	corpusB, collB := testCorpus(t, 12, 42)
	cluster := testCluster(t, corpusA, collA, Config{Shards: 4})
	st := ontoscore.StrategyRelationships

	stop := make(chan struct{})
	var failures atomic.Int64
	var queries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := testQueries[w%len(testQueries)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cluster.System(st).Query(context.Background(),
					core.SearchRequest{Query: q, K: 5})
				if err != nil || resp.Partial {
					failures.Add(1)
					return
				}
				for _, r := range resp.Results {
					// Hydration may race a swap of the owning shard; it
					// must still answer from a coherent generation
					// (possibly empty on a transient routing miss, never
					// a panic or a race).
					_ = cluster.System(st).Snippet(r)
				}
				_ = cluster.Statuses()
				queries.Add(1)
			}
		}(w)
	}

	for i := 0; i < 6; i++ {
		corpus, coll := corpusB, collB
		if i%2 == 1 {
			corpus, coll = corpusA, collA
		}
		if i == 3 {
			// One rolling reload fails its middle shard mid-swap while
			// queries are in flight.
			faultinject.Enable(FPReload, faultinject.Spec{Mode: faultinject.ModeError, After: 2, Count: 1})
		}
		cluster.Reload(context.Background(), corpus, testSide(coll))
		if i == 3 {
			faultinject.DisableAll()
		}
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed or went partial during reloads", n)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the reload storm")
	}
}
