package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/arena"
	"repro/internal/ontoscore"
)

// Memory-mapped shard serving. With Config.ArenaDir set, every local
// shard generation serves its postings from single-file arenas under
// <ArenaDir>/shard-<i>-of-<n>/<Strategy>.xarn — the partition layout
// (document-name hash) is stable across restarts, so a shard reopens
// exactly the files it wrote. Each arena's GlobalFP records the
// fingerprint of the FULL corpus the cluster was built over: per-shard
// scores embed collection-global BM25 statistics and cross-shard
// normalization maxima, so a shard arena is only valid against the
// same cluster-wide corpus, not merely the same partition view.

// arenaShardDir is the per-slot arena directory; encoding the shard
// count in the name means a resharded cluster (different n) never
// attaches another layout's files even before the fingerprint check.
func arenaShardDir(dir string, shard, n int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d", shard, n))
}

// genCalibrator resolves keyword normalization maxima over one
// incoming generation set instead of the cluster's live slots. An
// arena rebuild during a rolling reload runs BEFORE the generation
// swap: the cluster calibrator would still answer from the outgoing
// generations, silently baking stale divisors into the stored scores.
// Resolving over the incoming generations gives the values the cluster
// calibrator will produce once every shard has swapped — the stored
// scores match post-reload single-node ranking exactly.
type genCalibrator struct {
	gens []*shardGen
	st   ontoscore.Strategy

	mu    sync.Mutex
	cache map[string]float64
}

func (cal *genCalibrator) KeywordNorm(keyword string) float64 {
	cal.mu.Lock()
	defer cal.mu.Unlock()
	if v, ok := cal.cache[keyword]; ok {
		return v
	}
	max := keywordMax(cal.gens, cal.st, keyword)
	cal.cache[keyword] = max
	return max
}

// wireArenas attaches (or, with ArenaRebuild, builds and writes) one
// arena per strategy on every cold shard generation. Failures log and
// leave that system serving from heap; nothing here is fatal.
// Federated clusters skip arenas entirely — see Config.ArenaDir.
func (c *Cluster) wireArenas(gens []*shardGen, globalFP uint64) {
	if c.cfg.ArenaDir == "" {
		return
	}
	if len(c.cfg.Peers) > 0 {
		c.cfg.Logf("shard: ArenaDir ignored: federated statistics cannot be fingerprint-pinned")
		return
	}
	genCals := make(map[ontoscore.Strategy]*genCalibrator, 4)
	for _, st := range ontoscore.Strategies() {
		genCals[st] = &genCalibrator{gens: gens, st: st, cache: make(map[string]float64)}
	}
	for _, g := range gens {
		dir := arenaShardDir(c.cfg.ArenaDir, g.shard, len(gens))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.cfg.Logf("shard: shard %d arenas unavailable: %v", g.shard, err)
			continue
		}
		for _, stray := range arena.CleanupStray(dir) {
			c.cfg.Logf("shard: shard %d: removed stray temp file %s (crashed write)", g.shard, stray)
		}
		for _, st := range ontoscore.Strategies() {
			sys := g.systems[st]
			path := arena.FileFor(dir, st.String())
			// A rebuild calibrates against the incoming generations; the
			// builder gets its serving calibrator back afterwards.
			b := sys.Builder()
			prev := b.Calibrator()
			b.SetCalibrator(genCals[st])
			_, _, err := g.AttachArena(sys, path, globalFP, c.cfg.ArenaRebuild)
			b.SetCalibrator(prev)
			if err != nil {
				c.cfg.Logf("shard: shard %d arena %s unavailable, serving %s from heap: %v",
					g.shard, path, st, err)
			}
		}
		if n := len(g.Arenas()); n > 0 {
			c.cfg.Logf("shard: shard %d generation %d mapped %d arenas from %s", g.shard, g.Num, n, dir)
		}
	}
}

// MappedArenaBytes sums the mapped arena bytes across the live local
// shard generations (0 without ArenaDir).
func (c *Cluster) MappedArenaBytes() int {
	total := 0
	live := c.pinLocal()
	for _, g := range live {
		for _, a := range g.Arenas() {
			total += a.MappedBytes()
		}
	}
	c.unpinLocal(live)
	return total
}
