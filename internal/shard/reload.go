package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// FPReload fires once per shard, in shard order, just before that
// shard's generation swap; tests arm it (with After/Count) to fail one
// shard's swap while the others advance.
const FPReload = "shard.reload"

// ReloadResult is one shard's outcome of a rolling reload.
type ReloadResult struct {
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
	Documents  int    `json:"documents"`
	// Error is set when this shard's swap failed; the shard keeps
	// serving its previous generation.
	Error string `json:"error,omitempty"`
	// TookUS is the shard's offline build time in microseconds.
	TookUS int64 `json:"took_us"`
}

// Reload rolls the cluster onto a new corpus snapshot, shard by shard:
// every shard's next generation is built completely offline (with the
// cluster-wide statistics exchange run over the full new partition
// set), then each shard swaps independently. A swap that fails — the
// FPReload failpoint, or a canceled context — leaves only that shard
// on its previous generation; the others advance, and in-flight
// scatter-gather legs finish on whichever generation they pinned.
//
// A partially reloaded cluster serves mixed generations until the next
// successful reload: document routing is rebuilt from the live
// generations (first owner wins on the rare ID collision between old
// and new corpora), and shards still on the old generation keep their
// old — now slightly stale — global statistics overlay. Rankings
// remain well-formed; exact single-node equivalence resumes once all
// shards are on the same snapshot.
func (c *Cluster) Reload(ctx context.Context, corpus *xmltree.Corpus, coll *ontology.Collection) []ReloadResult {
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	start := time.Now()
	if coll != nil {
		c.coll = coll
	}
	local := c.cfg.Shards
	gens := c.buildGens(partition(corpus, local))
	c.exchangeStats(gens)
	c.installCalibrators(gens)
	c.installDelta(gens)
	// The new corpus carries a new fingerprint, so stale files are
	// refused and — with ArenaRebuild — fresh per-shard arenas are
	// written for the incoming generations before any of them serve.
	c.wireArenas(gens, corpus.Fingerprint())
	buildUS := time.Since(start).Microseconds()

	results := make([]ReloadResult, 0, local)
	swapped := 0
	// Peers reload themselves; the federated statistics exchange above
	// already refreshed their snapshot and re-pushed the merged globals.
	for i, sl := range c.slots[:local] {
		res := ReloadResult{Shard: i, TookUS: buildUS}
		err := ctx.Err()
		if err == nil {
			err = faultinject.Hit(FPReload)
		}
		if err != nil {
			// The unswapped generation never serves: drop its only
			// reference so it drains (and unmaps its arenas) now.
			sl.gen.Release(gens[i])
			old := sl.gen.Load()
			res.Generation = old.Num
			res.Documents = old.corpus.Len()
			res.Error = fmt.Sprintf("swap failed, keeping generation %d: %v", old.Num, err)
			c.cfg.Logf("shard: shard %d reload failed mid-swap, keeping generation %d: %v", i, old.Num, err)
			results = append(results, res)
			continue
		}
		next := gens[i]
		sl.gen.Swap(next)
		swapped++
		res.Generation = next.Num
		res.Documents = next.corpus.Len()
		results = append(results, res)
	}

	// Routing and calibration follow whatever mix of generations is now
	// live.
	owners := make(map[int32]int, corpus.Len())
	live := c.pinLocal()
	for i, g := range live {
		for _, doc := range g.corpus.Docs() {
			if _, taken := owners[doc.ID]; !taken {
				owners[doc.ID] = i
			}
		}
	}
	c.unpinLocal(live)
	c.owners.Store(&owners)
	c.purgeRemoteOwners()
	for _, cal := range c.calibs {
		cal.invalidate()
	}
	c.cfg.Logf("shard: rolling reload complete: %d/%d shards swapped in %v",
		swapped, local, time.Since(start).Round(time.Millisecond))
	return results
}
