package shard

import (
	"hash/fnv"

	"repro/internal/dil"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Live-delta wiring. A cluster overlaid by a delta segment
// (internal/delta) serves single-document ingests without a rebuild:
// every slot's engines read the segment's overlay (filtered to the
// documents that slot owns), whose dirty reads build through the slot's
// builder pinned to the acquired state, and hydration of delta
// documents routes to the owning slot via the segment's own owner
// records instead of the base owners map.

// DeltaOverlay is what the cluster needs from a live delta segment;
// *delta.Segment satisfies it. The norm provider the cluster hands to
// Overlay returns the FULL-corpus builder (the server generation's):
// under a disjoint partition the full-corpus live maximum equals the
// maximum over every slot's local maximum, so one authority serves
// both the sharded and the single-node path — and keeps them
// byte-identical.
type DeltaOverlay interface {
	Overlay(st ontoscore.Strategy, shard int, norm func() *dil.Builder) query.Overlay
	AuxDoc(id int32) *xmltree.Document
	OwnerOf(docID int32) int
}

// InstallDelta wires a live delta segment into every slot of the
// cluster: slot-filtered overlays and auxiliary documents on the
// systems. base returns the full-corpus builder of a strategy (the
// normalization authority). Call before serving traffic; reloads
// re-wire new generations automatically.
func (c *Cluster) InstallDelta(d DeltaOverlay, base func(st ontoscore.Strategy) *dil.Builder) {
	if c.hasPeers() {
		// Live ingest is a single-node/in-process feature: a delta
		// segment cannot overlay a remote peer's indexes. The CLI rejects
		// the combination; this guard keeps a programmatic caller safe.
		c.cfg.Logf("shard: InstallDelta ignored: live delta segments are not supported on a federated cluster")
		return
	}
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	c.delta = d
	c.deltaBase = base
	gens := make([]*shardGen, len(c.slots))
	for i, sl := range c.slots {
		gens[i] = sl.gen.Load()
	}
	c.installDelta(gens)
}

// installDelta applies the delta wiring to a set of generations (new
// builds during a reload, or the live set at install time). The
// generations must not be serving yet — the same off-line rule as
// exchangeStats.
func (c *Cluster) installDelta(gens []*shardGen) {
	if c.delta == nil {
		return
	}
	for _, g := range gens {
		for st, sys := range g.systems {
			st := st
			sys.SetOverlay(c.delta.Overlay(st, g.shard, func() *dil.Builder { return c.deltaBase(st) }))
			sys.SetAuxDocs(c.delta)
		}
	}
}

// OwnerOfName reports the slot that owns a document name under the
// cluster's stable hash partition — the delta segment uses it to
// assign live documents to the shard that would own them after a
// compaction folds them into the base.
func (c *Cluster) OwnerOfName(name string) int {
	return shardOfName(name, len(c.slots))
}

// shardOfName is the stable FNV-1a name hash behind shardOf.
func shardOfName(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// PurgeKeywordCaches drops every live slot system's on-demand keyword
// cache (the serving layer calls it after each applied ingest — the
// cached lists are clean-state ones a dirty overlay never reads; this
// frees the memory).
func (c *Cluster) PurgeKeywordCaches() {
	live := c.pinLocal()
	for _, g := range live {
		for _, sys := range g.systems {
			sys.PurgeKeywordCache()
		}
	}
	c.unpinLocal(live)
}
