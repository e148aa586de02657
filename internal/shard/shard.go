// Package shard partitions the corpus into N document shards and
// serves searches by scatter-gather: every shard is an independent,
// reference-counted generation (its own corpus view, XOnto-DIL
// builders, and query engines), the coordinator fans a query out to
// all shards in parallel and merges the per-shard top-k with the
// loser-tree machinery of internal/query.
//
// Sharded ranking is exactly single-node ranking. Three pieces make
// that true rather than approximately true:
//
//   - Partition views share documents with the source corpus under
//     their original IDs (xmltree.Corpus.AddExisting), so Dewey
//     identifiers — and with them result roots and matches — are
//     byte-identical to the unsharded system.
//   - BM25 depends on collection-global statistics (N, DF, avgdl).
//     Each shard computes its local ir.Stats; the cluster merges them
//     (additive under a disjoint document partition) and broadcasts
//     the merged snapshot back onto every shard's text index — the
//     classic distributed-IR global-IDF exchange.
//   - Per-keyword score normalization divides by the collection-wide
//     maximum raw BM25. A cluster Calibrator answers that maximum by
//     asking every shard for its local max (dil.Builder.RawTextMax)
//     and caching the result per keyword.
//
// Because results partition by document and every shard returns its
// full top-k under the engine's total order (score desc, Dewey asc),
// the merged prefix equals the single-node top-k.
//
// Availability: each shard slot is guarded by its own circuit breaker;
// a slow, failed, or breaker-open shard yields a partial answer
// (SearchResponse.Partial) with per-shard status instead of an error.
// Shards hot-reload independently — a reload that fails mid-swap
// leaves only that shard on its previous generation while the others
// advance.
package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/gen"
	"repro/internal/ir"
	"repro/internal/ontoscore"
	"repro/internal/peer"
	"repro/internal/resilience"
	"repro/internal/xmltree"
)

// DefaultTimeout is the per-shard query budget when Config.Timeout is
// unset.
const DefaultTimeout = 2 * time.Second

// Config tunes a cluster. The zero value of every field takes the
// documented default.
type Config struct {
	// Shards is the number of document shards; <= 0 means 1.
	Shards int
	// Timeout is the per-shard query budget; a shard that does not
	// answer within it is reported as "timeout" and the query proceeds
	// with the shards that did. <= 0 means DefaultTimeout.
	Timeout time.Duration
	// Quorum is how many slots (local shards plus peers) must be ready
	// (breaker not open) for the cluster to report ready; <= 0 means a
	// majority (n/2 + 1).
	Quorum int
	// Peers are remote shard nodes: each one becomes a slot served over
	// the HTTP shard API instead of an in-process generation. The
	// local corpus is still partitioned across Shards local slots; the
	// peers bring their own documents. The cluster runs the federated
	// statistics exchange against them at startup and on every reload,
	// so federated scores stay byte-identical to a single node holding
	// the union of all partitions.
	Peers []*peer.Client
	// Core is the base system configuration; Strategy is overridden
	// per prepared system.
	Core core.Config
	// Breaker tunes the per-shard circuit breaker (zero value:
	// resilience defaults).
	Breaker resilience.BreakerConfig
	// ArenaDir, when set, serves each shard's postings from
	// memory-mapped arena files under
	// <ArenaDir>/shard-<i>-of-<n>/<Strategy>.xarn; a missing or stale
	// file falls back to heap serving (and is rebuilt with
	// ArenaRebuild). Ignored when Peers are configured: stored shard
	// scores depend on the federation-wide statistics exchange, which
	// the arena fingerprints cannot pin.
	ArenaDir string
	// ArenaRebuild makes missing or incompatible shard arenas get
	// rebuilt (full per-shard index build + atomic write) at cluster
	// construction and on every reload.
	ArenaRebuild bool
	// Logf receives cluster lifecycle logs; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	total := c.Shards + len(c.Peers)
	if c.Quorum <= 0 || c.Quorum > total {
		c.Quorum = total/2 + 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Manifest records what one shard generation was built from — the
// shard's own ingest manifest, kept in memory and swapped with the
// generation it describes.
type Manifest struct {
	// Shard is the slot index.
	Shard int `json:"shard"`
	// Generation is the cluster-wide generation number of this build.
	Generation uint64 `json:"generation"`
	// Documents is the number of documents assigned to the shard.
	Documents int `json:"documents"`
	// Elements is the number of XML elements across those documents.
	Elements int `json:"elements"`
	// BuildUS is the offline build time of the shard's systems, in
	// microseconds.
	BuildUS int64 `json:"build_us"`
}

// shardGen is one immutable serving snapshot of a single shard: its
// partition-view corpus and one prepared system per strategy, with the
// same internal/gen lifecycle as the server's generations so a reload
// never pulls a corpus out from under an in-flight scatter-gather leg.
type shardGen struct {
	gen.Snapshot
	corpus   *xmltree.Corpus
	systems  map[ontoscore.Strategy]*core.System
	manifest Manifest
	shard    int
}

// slot is one shard's long-lived identity. A local slot holds the
// generation cell queries pin; a remote slot holds a peer client
// instead (gen stays empty) and shares the client's breaker so
// readiness and quorum see the same failure record the transport
// feeds.
type slot struct {
	id      int
	gen     gen.Cell[shardGen, *shardGen]
	breaker *resilience.Breaker

	// remote, when non-nil, marks this slot as served by a peer node.
	remote *peer.Client
	// peerStats caches the peer's last-fetched statistics snapshot
	// (documents, generation) for statuses and gauges.
	peerStats atomic.Pointer[peer.StatsWire]
}

// Cluster owns the shard slots and the per-strategy scatter-gather
// facades. It is built once and lives across server generations;
// shards reload independently through Reload.
type Cluster struct {
	cfg   Config
	side  *ontoscore.Side // the collection's ontology side, shared by every shard's stage
	slots []*slot

	genCounter atomic.Uint64

	// owners maps document ID -> slot index, rebuilt on reload (under
	// reloadMu) and read lock-free by Snippet/Fragment routing.
	owners atomic.Pointer[map[int32]int]

	// remoteOwn lazily maps document IDs seen in peer answers to the
	// remote slot that served them, so Snippet/Fragment hydration
	// routes back to the owning peer. Purged on reload.
	remoteOwnMu sync.RWMutex
	remoteOwn   map[int32]int

	systems map[ontoscore.Strategy]*Sharded
	calibs  map[ontoscore.Strategy]*calibrator

	reloadMu sync.Mutex

	// delta, when non-nil, overlays every slot with a live segment
	// (InstallDelta); deltaBase returns the full-corpus normalization
	// authority per strategy. Written under reloadMu before traffic.
	delta     DeltaOverlay
	deltaBase func(st ontoscore.Strategy) *dil.Builder

	metrics *metrics // nil until Instrument
}

// shardOf assigns a document to a shard by a stable FNV-1a hash of its
// name (falling back to its decimal ID for anonymous documents), so
// the same document lands on the same shard across reloads and across
// processes regardless of ingestion order.
func shardOf(doc *xmltree.Document, n int) int {
	if doc.Name != "" {
		return shardOfName(doc.Name, n)
	}
	return shardOfName(strconv.FormatInt(int64(doc.ID), 10), n)
}

// partition splits a corpus into n document-partition views sharing
// the original documents (and therefore the original IDs and Dewey
// identifiers).
func partition(corpus *xmltree.Corpus, n int) []*xmltree.Corpus {
	views := make([]*xmltree.Corpus, n)
	for i := range views {
		views[i] = xmltree.NewCorpus()
	}
	for _, doc := range corpus.Docs() {
		views[shardOf(doc, n)].AddExisting(doc)
	}
	return views
}

// New partitions the local corpus across the local shard slots,
// builds every shard's first generation in parallel over the one
// ontology side (built with cfg.Core.DIL.Onto), appends one slot per
// configured peer, and runs the (federated, when peers are present)
// statistics exchange so each shard — local or remote — scores with
// collection-global BM25 statistics.
func New(corpus *xmltree.Corpus, side *ontoscore.Side, cfg Config) *Cluster {
	cfg = cfg.normalized()
	c := &Cluster{
		cfg:       cfg,
		side:      side,
		slots:     make([]*slot, 0, cfg.Shards+len(cfg.Peers)),
		systems:   make(map[ontoscore.Strategy]*Sharded, 4),
		calibs:    make(map[ontoscore.Strategy]*calibrator, 4),
		remoteOwn: make(map[int32]int),
	}
	for i := 0; i < cfg.Shards; i++ {
		c.slots = append(c.slots, &slot{id: i, breaker: resilience.NewBreaker(cfg.Breaker)})
	}
	for _, pc := range cfg.Peers {
		c.slots = append(c.slots, &slot{id: len(c.slots), remote: pc, breaker: pc.Breaker()})
	}
	gens := c.buildGens(partition(corpus, cfg.Shards))
	c.exchangeStats(gens)
	owners := make(map[int32]int, corpus.Len())
	for i, g := range gens {
		c.slots[i].gen.Start(g, c.drained)
		for _, doc := range g.corpus.Docs() {
			owners[doc.ID] = i
		}
	}
	c.owners.Store(&owners)
	for _, st := range ontoscore.Strategies() {
		cal := &calibrator{c: c, st: st, cache: make(map[string]float64)}
		c.calibs[st] = cal
		c.systems[st] = &Sharded{c: c, st: st}
	}
	c.installCalibrators(gens)
	// Arenas attach last: a rebuild runs each shard's index build, which
	// must see the merged global statistics and the cluster calibrator
	// (installed above) for stored scores to match single-node ranking.
	c.wireArenas(gens, corpus.Fingerprint())
	c.cfg.Logf("shard: cluster up: %d local shards, %d peers, %d local documents, per-shard timeout %v, quorum %d",
		cfg.Shards, len(cfg.Peers), corpus.Len(), cfg.Timeout, cfg.Quorum)
	return c
}

// buildGens builds one generation per partition view, in parallel —
// each build touches only its own view, so the builds are independent.
func (c *Cluster) buildGens(views []*xmltree.Corpus) []*shardGen {
	gens := make([]*shardGen, len(views))
	var wg sync.WaitGroup
	for i, view := range views {
		wg.Add(1)
		go func(i int, view *xmltree.Corpus) {
			defer wg.Done()
			gens[i] = c.buildGen(i, view)
		}(i, view)
	}
	wg.Wait()
	return gens
}

func (c *Cluster) buildGen(id int, view *xmltree.Corpus) *shardGen {
	start := time.Now()
	g := &shardGen{
		Snapshot: gen.Snapshot{Num: c.genCounter.Add(1)},
		corpus:   view,
		systems:  core.NewSystems(view, c.side, c.cfg.Core),
		shard:    id,
	}
	elements := 0
	for _, doc := range view.Docs() {
		elements += doc.Size()
	}
	g.manifest = Manifest{
		Shard:      id,
		Generation: g.Num,
		Documents:  view.Len(),
		Elements:   elements,
		BuildUS:    time.Since(start).Microseconds(),
	}
	return g
}

// exchangeStats merges every shard's local text-index statistics —
// local generations and remote peers alike — and broadcasts the
// collection-global snapshot back onto each local shard's builders and
// out to every peer over POST /shard/stats. Run on local generations that are not serving
// yet — the overlay is installed while the indexes are cold.
func (c *Cluster) exchangeStats(gens []*shardGen) {
	remote := c.fetchPeerStats()
	merged := make(map[string]peer.StrategyStatsWire, 4)
	for _, st := range ontoscore.Strategies() {
		parts := make([]ir.Stats, 0, len(gens)+len(remote))
		for _, g := range gens {
			parts = append(parts, g.systems[st].Builder().LocalTextStats())
		}
		for _, sw := range remote {
			if s, ok := sw.Strategies[st.String()]; ok {
				parts = append(parts, ir.Stats{N: s.N, TotalLen: s.TotalLen, DF: s.DF})
			}
		}
		m := ir.MergeStats(parts...)
		for _, g := range gens {
			g.systems[st].Builder().SetGlobalTextStats(m)
		}
		merged[st.String()] = peer.StrategyStatsWire{N: m.N, TotalLen: m.TotalLen, DF: m.DF}
	}
	c.pushPeerStats(merged)
}

// installCalibrators points every builder of the given generations at
// the cluster's per-strategy keyword-norm calibrator.
func (c *Cluster) installCalibrators(gens []*shardGen) {
	for _, g := range gens {
		for st, sys := range g.systems {
			sys.Builder().SetCalibrator(c.calibs[st])
		}
	}
}

// drained is every local slot's drain hook.
func (c *Cluster) drained(g *shardGen) {
	c.cfg.Logf("shard: shard %d generation %d drained and released", g.shard, g.Num)
}

// pinLocal pins the active generation of every local slot (the local
// slots come first, peers after); unpinLocal releases them.
func (c *Cluster) pinLocal() []*shardGen {
	gens := make([]*shardGen, 0, c.cfg.Shards)
	for _, sl := range c.slots[:c.cfg.Shards] {
		gens = append(gens, sl.gen.Pin())
	}
	return gens
}

func (c *Cluster) unpinLocal(gens []*shardGen) {
	for i, g := range gens {
		c.slots[i].gen.Release(g)
	}
}

// keywordMax is the per-keyword normalization maximum over a set of
// shard generations: the largest local max raw BM25 of keyword under
// strategy st.
func keywordMax(gens []*shardGen, st ontoscore.Strategy, keyword string) float64 {
	max := 0.0
	for _, g := range gens {
		if m := g.systems[st].Builder().RawTextMax(keyword); m > max {
			max = m
		}
	}
	return max
}

// Config returns the normalized cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Shards is the number of shard slots.
func (c *Cluster) Shards() int { return len(c.slots) }

// System returns the scatter-gather facade for one strategy. The
// facade implements the same Query/Snippet/Fragment surface as
// *core.System, so the serving and server layers use it unchanged.
func (c *Cluster) System(st ontoscore.Strategy) *Sharded { return c.systems[st] }

// ownerOf locates the slot currently serving a document ID (-1 when
// no shard has it — possible transiently across a partial reload).
func (c *Cluster) ownerOf(docID int32) int {
	owners := c.owners.Load()
	if owners == nil {
		return -1
	}
	if i, ok := (*owners)[docID]; ok {
		return i
	}
	return -1
}

// calibrator answers collection-wide per-keyword normalization maxima
// for one strategy: the max over every shard's local max raw BM25 for
// the keyword. Answers are cached per keyword; the cache is dropped
// whenever any shard swaps generations. Concurrent misses may compute
// the same keyword twice — both arrive at the same value, so the
// duplicate work is bounded and harmless.
type calibrator struct {
	c  *Cluster
	st ontoscore.Strategy

	mu    sync.Mutex
	cache map[string]float64
}

// KeywordNorm implements dil.Calibrator. It is called from inside a
// shard's own keyword build; pinning is refcount-only and builders
// take no locks on this path, so the cross-shard callback cannot
// deadlock. With peers in the cluster the coordinator pre-resolves
// query keywords (resolveAll) before the fan-out, so this path hits
// the cache and never blocks a build on the network.
func (cal *calibrator) KeywordNorm(keyword string) float64 {
	return cal.resolve(context.Background(), keyword)
}

// resolve answers the federation-wide per-keyword max raw BM25: the
// max over every local shard's RawTextMax and every peer's answer to
// GET /shard/stats?keyword=. The value is cached only when every slot
// answered — a miss on a flaky peer is retried by the next query
// instead of freezing a too-small divisor.
func (cal *calibrator) resolve(ctx context.Context, keyword string) float64 {
	cal.mu.Lock()
	v, ok := cal.cache[keyword]
	cal.mu.Unlock()
	if ok {
		return v
	}
	local := cal.c.pinLocal()
	max := keywordMax(local, cal.st, keyword)
	cal.c.unpinLocal(local)
	complete := true
	for _, sl := range cal.c.slots[cal.c.cfg.Shards:] {
		m, ok := cal.c.remoteKeywordMax(ctx, sl, keyword, cal.st)
		if !ok {
			complete = false
		} else if m > max {
			max = m
		}
	}
	if complete {
		cal.mu.Lock()
		cal.cache[keyword] = max
		cal.mu.Unlock()
	}
	return max
}

func (cal *calibrator) invalidate() {
	cal.mu.Lock()
	cal.cache = make(map[string]float64)
	cal.mu.Unlock()
}

// Status is one shard's readiness snapshot for /readyz.
type Status struct {
	Shard int `json:"shard"`
	// Peer names the remote node serving this slot; empty for local
	// shards. Remote generation and document counts reflect the last
	// fetched statistics snapshot.
	Peer       string                    `json:"peer,omitempty"`
	Generation uint64                    `json:"generation"`
	Documents  int                       `json:"documents"`
	Breaker    resilience.BreakerMetrics `json:"breaker"`
	// Ready is false while the shard's breaker is open — the slot is
	// being skipped by scatter-gather, so its documents are not being
	// searched.
	Ready bool `json:"ready"`
	// Manifest describes what the serving generation was built from.
	Manifest Manifest `json:"manifest"`
}

// Statuses snapshots every shard slot.
func (c *Cluster) Statuses() []Status {
	out := make([]Status, 0, len(c.slots))
	for _, sl := range c.slots {
		m := sl.breaker.Metrics()
		if sl.remote != nil {
			st := Status{
				Shard:   sl.id,
				Peer:    sl.remote.Name(),
				Breaker: m,
				Ready:   m.State != resilience.Open.String(),
			}
			if sw := sl.peerStats.Load(); sw != nil {
				st.Generation = sw.Generation
				st.Documents = sw.Documents
				st.Manifest = Manifest{Shard: sl.id, Generation: sw.Generation, Documents: sw.Documents}
			}
			out = append(out, st)
			continue
		}
		g := sl.gen.Pin()
		out = append(out, Status{
			Shard:      sl.id,
			Generation: g.Num,
			Documents:  g.corpus.Len(),
			Breaker:    m,
			Ready:      m.State != resilience.Open.String(),
			Manifest:   g.manifest,
		})
		sl.gen.Release(g)
	}
	return out
}

// Ready counts ready shards against the configured quorum.
func (c *Cluster) Ready() (ready, quorum int, ok bool) {
	for _, sl := range c.slots {
		if sl.breaker.State() != resilience.Open {
			ready++
		}
	}
	return ready, c.cfg.Quorum, ready >= c.cfg.Quorum
}

// Documents is the total document count across shards; peer counts
// come from the last fetched statistics snapshot.
func (c *Cluster) Documents() int {
	total := 0
	for _, sl := range c.slots[c.cfg.Shards:] {
		if sw := sl.peerStats.Load(); sw != nil {
			total += sw.Documents
		}
	}
	live := c.pinLocal()
	for _, g := range live {
		total += g.corpus.Len()
	}
	c.unpinLocal(live)
	return total
}

// Summary describes the cluster for logs.
func (c *Cluster) Summary() string {
	ready, quorum, _ := c.Ready()
	return fmt.Sprintf("shards=%d peers=%d ready=%d quorum=%d documents=%d",
		len(c.slots)-len(c.cfg.Peers), len(c.cfg.Peers), ready, quorum, c.Documents())
}
