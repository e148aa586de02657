package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ontoscore"
	"repro/internal/peer"
)

// TestShardedArenaDifferential: for 1-, 2-, and 4-way clusters the
// memory-mapped answer is byte-identical to both the heap cluster and
// the single-node system, across every strategy and the DIL and RDIL
// paths — and a second cluster cold-attaches the files the first one
// wrote, without rebuilding.
func TestShardedArenaDifferential(t *testing.T) {
	corpus, coll := testCorpus(t, 12, 9)
	singles := make(map[ontoscore.Strategy]*core.System)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		singles[st] = core.NewMulti(corpus, coll, cfg)
	}
	for _, shards := range []int{1, 2, 4} {
		dir := t.TempDir()
		plain := testCluster(t, corpus, coll, Config{Shards: shards})
		mapped := testCluster(t, corpus, coll, Config{Shards: shards, ArenaDir: dir, ArenaRebuild: true})
		if mapped.MappedArenaBytes() == 0 {
			t.Fatalf("shards=%d: nothing mapped after rebuild", shards)
		}
		// Cold attach: rebuild off, so only the files written above can
		// serve — mapping anything proves they were attached.
		cold := testCluster(t, corpus, coll, Config{Shards: shards, ArenaDir: dir})
		if cold.MappedArenaBytes() == 0 {
			t.Fatalf("shards=%d: cold attach mapped nothing", shards)
		}
		for _, st := range ontoscore.Strategies() {
			for _, q := range testQueries {
				name := fmt.Sprintf("shards=%d/%s/%q", shards, st, q)
				req := core.SearchRequest{Query: q, K: 10, Explain: true}
				want, err := singles[st].Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: single-node: %v", name, err)
				}
				for label, c := range map[string]*Cluster{"heap": plain, "mapped": mapped, "cold": cold} {
					got, err := c.System(st).Query(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: %s cluster: %v", name, label, err)
					}
					assertSameResults(t, name+"/"+label, want, got)
				}
			}
		}
	}
}

// TestShardedArenaReload: a rolling reload writes fresh per-shard
// arenas for the new corpus before any shard serves it, old
// generations keep their mappings exactly as long as a pinned leg, and
// the reloaded cluster still matches single-node ranking.
func TestShardedArenaReload(t *testing.T) {
	corpus, coll := testCorpus(t, 10, 9)
	dir := t.TempDir()
	c := testCluster(t, corpus, coll, Config{Shards: 2, ArenaDir: dir, ArenaRebuild: true})

	// Pin shard 0's generation, as an in-flight scatter-gather leg would.
	g := c.slots[0].gen.Pin()
	oldArenas := g.Arenas()
	if len(oldArenas) == 0 {
		t.Fatal("no arenas on the live shard generation")
	}

	corpus2, coll2 := testCorpus(t, 14, 10)
	for _, res := range c.Reload(context.Background(), corpus2, testSide(coll2)) {
		if res.Error != "" {
			t.Fatalf("shard %d reload: %s", res.Shard, res.Error)
		}
	}
	if c.MappedArenaBytes() == 0 {
		t.Fatal("nothing mapped after reload")
	}
	for _, a := range oldArenas {
		if !a.Mapped() {
			t.Fatalf("old arena %s unmapped while its generation is pinned", a.Path())
		}
	}
	c.slots[0].gen.Release(g)
	for _, a := range oldArenas {
		if a.Mapped() {
			t.Fatalf("old arena %s still mapped after drain", a.Path())
		}
	}

	cfg := core.DefaultConfig()
	cfg.Strategy = ontoscore.StrategyRelationships
	single := core.NewMulti(corpus2, coll2, cfg)
	for _, q := range testQueries {
		req := core.SearchRequest{Query: q, K: 10}
		want, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.System(ontoscore.StrategyRelationships).Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, q, want, got)
	}
}

// TestShardedArenaFailedSwapDrains: a shard whose swap fails never
// serves the generation built for it, so that generation — and the
// arenas the rebuild mapped for it — must drain at once instead of
// staying mapped until the process exits.
func TestShardedArenaFailedSwapDrains(t *testing.T) {
	corpus, coll := testCorpus(t, 10, 9)
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := testCluster(t, corpus, coll, Config{Shards: 2, ArenaDir: t.TempDir(), ArenaRebuild: true, Logf: logf})
	kept := c.Statuses()[1].Generation

	corpus2, coll2 := testCorpus(t, 14, 10)
	faultinject.Enable(FPReload, faultinject.Spec{Mode: faultinject.ModeError, After: 1, Count: 1})
	results := c.Reload(context.Background(), corpus2, testSide(coll2))
	faultinject.DisableAll()
	if results[1].Error == "" || results[1].Generation != kept {
		t.Fatalf("shard 1 reload = %+v, want a failed swap keeping generation %d", results[1], kept)
	}

	drained := regexp.MustCompile(`^shard: shard 1 generation (\d+) drained`)
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if m := drained.FindStringSubmatch(line); m != nil && m[1] != strconv.FormatUint(kept, 10) {
			return
		}
	}
	t.Fatalf("the generation built for shard 1 never drained; logs:\n%s", strings.Join(logs, "\n"))
}

// TestShardedArenaStaleRefused: files written for one corpus must not
// attach to a cluster over a different one (without rebuild the shard
// serves from heap; with it the files are rewritten).
func TestShardedArenaStaleRefused(t *testing.T) {
	corpus, coll := testCorpus(t, 10, 9)
	dir := t.TempDir()
	if c := testCluster(t, corpus, coll, Config{Shards: 2, ArenaDir: dir, ArenaRebuild: true}); c.MappedArenaBytes() == 0 {
		t.Fatal("seed cluster mapped nothing")
	}
	other, otherColl := testCorpus(t, 11, 10)
	stale := testCluster(t, other, otherColl, Config{Shards: 2, ArenaDir: dir})
	if n := stale.MappedArenaBytes(); n != 0 {
		t.Fatalf("stale arenas attached to a different corpus (%d bytes mapped)", n)
	}
	// Search still answers from heap.
	resp, err := stale.System(ontoscore.StrategyRelationships).Query(context.Background(),
		core.SearchRequest{Query: "asthma", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("heap fallback returned nothing")
	}
}

// TestFederatedArenaRefused: ArenaDir is ignored on a federated
// coordinator — remote statistics can't be fingerprint-pinned — and no
// files are written.
func TestFederatedArenaRefused(t *testing.T) {
	corpus, coll := testCorpus(t, 12, 9)
	dir := t.TempDir()
	fed, _ := newFederation(t, corpus, coll, 1, peer.Options{},
		Config{ArenaDir: dir, ArenaRebuild: true})
	if n := fed.MappedArenaBytes(); n != 0 {
		t.Fatalf("federated coordinator mapped %d bytes", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("federated coordinator wrote %s", filepath.Join(dir, e.Name()))
	}
}
