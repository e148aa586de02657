package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// The acceptance bar for sharded serving: for every shard count the
// scatter-gather answer is byte-identical to the single-node system —
// same roots, same scores (exact float equality, which only holds
// because global statistics and normalization maxima are exchanged
// across shards), same supporting matches. Covers the DIL and RDIL
// paths, every strategy, and snippet hydration.
func TestShardedEquivalence(t *testing.T) {
	corpus, coll := testCorpus(t, 12, 9)
	singles := make(map[ontoscore.Strategy]*core.System)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		singles[st] = core.NewMulti(corpus, coll, cfg)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cluster := testCluster(t, corpus, coll, Config{Shards: shards})
		for _, st := range ontoscore.Strategies() {
			for _, q := range testQueries {
				name := fmt.Sprintf("shards=%d/%s/%q", shards, st, q)
				req := core.SearchRequest{Query: q, K: 10, Explain: true}
				want, err := singles[st].Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: single-node: %v", name, err)
				}
				got, err := cluster.System(st).Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: sharded: %v", name, err)
				}
				if got.Partial {
					t.Errorf("%s: healthy cluster answered partial", name)
				}
				if len(got.Shards) != shards {
					t.Errorf("%s: %d shard statuses, want %d", name, len(got.Shards), shards)
				}
				assertSameResults(t, name, want, got)
			}
		}
	}
}

func assertSameResults(t *testing.T, name string, want, got *core.SearchResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Errorf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
		return
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if g.Root.Compare(w.Root) != 0 {
			t.Errorf("%s: result %d root %s, want %s", name, i, g.Root, w.Root)
		}
		if g.Score != w.Score {
			t.Errorf("%s: result %d score %.17g, want %.17g", name, i, g.Score, w.Score)
		}
		if g.Document != w.Document || g.Path != w.Path {
			t.Errorf("%s: result %d hydration (%s,%s), want (%s,%s)",
				name, i, g.Document, g.Path, w.Document, w.Path)
		}
		if len(g.Matches) != len(w.Matches) {
			t.Errorf("%s: result %d has %d matches, want %d", name, i, len(g.Matches), len(w.Matches))
			continue
		}
		for j := range w.Matches {
			wm, gm := w.Matches[j], g.Matches[j]
			if gm.Keyword != wm.Keyword || gm.ID.Compare(wm.ID) != 0 || gm.Score != wm.Score {
				t.Errorf("%s: result %d match %d = {%s %s %.17g}, want {%s %s %.17g}",
					name, i, j, gm.Keyword, gm.ID, gm.Score, wm.Keyword, wm.ID, wm.Score)
			}
		}
	}
	if len(got.Snippets) != len(want.Snippets) {
		t.Errorf("%s: %d snippets, want %d", name, len(got.Snippets), len(want.Snippets))
		return
	}
	for i := range want.Snippets {
		if got.Snippets[i] != want.Snippets[i] {
			t.Errorf("%s: snippet %d = %q, want %q", name, i, got.Snippets[i], want.Snippets[i])
		}
	}
}

// Offset paging is exact under scatter-gather: for every shard count,
// page [offset, offset+k) of the cluster answer equals the same window
// of the single-node ranked list — the coordinator widens each leg to
// k+offset and pages once after the merge, so no shard's local paging
// can hide a globally top-ranked result.
func TestShardedPagingEquivalence(t *testing.T) {
	corpus, coll := testCorpus(t, 12, 9)
	single := core.NewMulti(corpus, coll, core.DefaultConfig())
	st := ontoscore.StrategyRelationships
	const q = "asthma medications"
	full, err := single.Query(context.Background(), core.SearchRequest{Query: q, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < 4 {
		t.Skipf("only %d results; cannot page", len(full.Results))
	}
	for _, shards := range []int{1, 2, 4} {
		cluster := testCluster(t, corpus, coll, Config{Shards: shards})
		for _, page := range []struct{ k, offset int }{
			{1, 0}, {2, 1}, {3, 2}, {2, len(full.Results) - 1}, {5, len(full.Results) + 3},
		} {
			name := fmt.Sprintf("shards=%d/k=%d/offset=%d", shards, page.k, page.offset)
			got, err := cluster.System(st).Query(context.Background(),
				core.SearchRequest{Query: q, K: page.k, Offset: page.offset})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lo := page.offset
			if lo > len(full.Results) {
				lo = len(full.Results)
			}
			hi := page.offset + page.k
			if hi > len(full.Results) {
				hi = len(full.Results)
			}
			want := &core.SearchResponse{Results: full.Results[lo:hi]}
			assertSameResults(t, name, want, got)
		}
	}
}

// Pre-parsed keyword requests and the default-k path go through the
// same merge.
func TestShardedQueryDefaults(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 3)
	cluster := testCluster(t, corpus, coll, Config{Shards: 3})
	single := core.NewMulti(corpus, coll, core.DefaultConfig())
	st := ontoscore.StrategyRelationships
	kws := query.ParseQuery("asthma medications")
	want, err := single.Query(context.Background(), core.SearchRequest{Keywords: kws})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.System(st).Query(context.Background(), core.SearchRequest{Keywords: kws})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) > query.DefaultParams().K {
		t.Fatalf("single-node ignored default k: %d results", len(want.Results))
	}
	assertSameResults(t, "defaults", want, got)
}

// A strategy mismatch is an error, not a silent wrong answer — same
// contract as the single-node system.
func TestShardedStrategyMismatch(t *testing.T) {
	corpus, coll := testCorpus(t, 4, 5)
	cluster := testCluster(t, corpus, coll, Config{Shards: 2})
	_, err := cluster.System(ontoscore.StrategyRelationships).Query(context.Background(),
		core.SearchRequest{Query: "asthma", Strategy: "XRANK"})
	if err == nil {
		t.Fatal("mismatched strategy did not error")
	}
}

// Snippet and Fragment route to the shard owning the result's
// document and answer identically to the single-node system.
func TestShardedHydrationRouting(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 7)
	cluster := testCluster(t, corpus, coll, Config{Shards: 4})
	single := core.NewMulti(corpus, coll, core.DefaultConfig())
	st := ontoscore.StrategyRelationships
	resp, err := cluster.System(st).Query(context.Background(), core.SearchRequest{Query: "asthma", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results to hydrate")
	}
	for _, r := range resp.Results {
		if got, want := cluster.System(st).Snippet(r), single.Snippet(r); got != want {
			t.Errorf("snippet(%s) = %q, want %q", r.Root, got, want)
		}
		if got, want := cluster.System(st).Fragment(r), single.Fragment(r); got != want {
			t.Errorf("fragment(%s) = %q, want %q", r.Root, got, want)
		}
	}
}
