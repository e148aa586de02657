package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// A generation is one immutable serving snapshot: a corpus, its
// ontology collection, and the per-strategy systems built over them.
// The server's gen.Cell holds the active generation; a reload builds
// the next generation completely off-line and swaps it in, so queries
// never observe a half-built index. Every request pins the generation
// it started on (internal/gen owns the refcount, the drain, and the
// unmapping of the generation's arenas).
type generation struct {
	gen.Snapshot
	corpus  *xmltree.Corpus
	coll    *ontology.Collection
	systems map[ontoscore.Strategy]*core.System

	// textTook is the one full-text stage the systems share, buildTook
	// the whole of newGeneration (stage included).
	textTook, buildTook time.Duration
}

// newGeneration builds the per-strategy systems over one corpus
// snapshot. It touches no shared state, so it is safe to run while an
// older generation serves traffic.
func newGeneration(num uint64, corpus *xmltree.Corpus, coll *ontology.Collection, cfg core.Config) *generation {
	start := time.Now()
	g := &generation{
		Snapshot: gen.Snapshot{Num: num},
		corpus:   corpus,
		coll:     coll,
		systems:  core.NewSystems(corpus, coll, cfg),
	}
	g.textTook = g.systems[ontoscore.StrategyNone].Builder().FullTextTime()
	g.buildTook = time.Since(start)
	return g
}

type genCtxKey struct{}

// generationFrom recovers the generation pinned by ServeHTTP. The
// serving layer's singleflight detaches cancellation but preserves
// context values, so an execution coalesced across requests still sees
// the generation its cache key (epoch) names.
func generationFrom(ctx context.Context) (*generation, bool) {
	g, ok := ctx.Value(genCtxKey{}).(*generation)
	return g, ok
}

// ReloadData is what a reload produces: a fresh corpus and collection
// (and, when the data came through the ingestion pipeline, its
// report).
type ReloadData struct {
	Corpus     *xmltree.Corpus
	Collection *ontology.Collection
	Ingest     *ingest.Report
}

// ReloadFunc rebuilds the serving data set — typically by re-running
// the ingestion pipeline over the data directory. It runs outside the
// request path; the old generation keeps serving until it returns.
type ReloadFunc func(ctx context.Context) (*ReloadData, error)

// SetReloader installs the data source for Reload (and with it the
// POST /admin/reload endpoint and any SIGHUP wiring the command layer
// adds). Call before serving traffic.
func (s *Server) SetReloader(fn ReloadFunc) { s.reloader = fn }

// SetReleaseHook registers fn to run whenever a superseded generation
// fully drains (its number is passed). Tests use it to assert
// zero-downtime swaps actually release the old corpus. Call before
// serving traffic.
func (s *Server) SetReleaseHook(fn func(num uint64)) { s.releaseHook = fn }

// drained is the generation cell's drain hook: every generation, the
// boot one included, logs its drain.
func (s *Server) drained(g *generation) {
	s.logf("server: generation %d drained and released", g.Num)
	if s.releaseHook != nil {
		s.releaseHook(g.Num)
	}
}

// GenerationNum reports the active generation.
func (s *Server) GenerationNum() uint64 { return s.gen.Load().Num }

// LastIngest reports the most recent ingestion report (nil when the
// corpus never went through the pipeline).
func (s *Server) LastIngest() *ingest.Report { return s.lastIngest.Load() }

// SetLastIngest records the report of the boot-time ingest so /readyz
// can expose it before the first reload.
func (s *Server) SetLastIngest(r *ingest.Report) {
	if r != nil {
		s.lastIngest.Store(r)
	}
}

// ReloadStatus summarizes one completed reload.
type ReloadStatus struct {
	// Generation is the now-active generation number.
	Generation uint64 `json:"generation"`
	// Documents is the active corpus size.
	Documents int `json:"documents"`
	// Ingest is the ingestion report behind this generation, if any.
	Ingest *ingest.Report `json:"ingest,omitempty"`
	// Shards reports each shard's rolling-reload outcome (sharded
	// serving only); a shard whose swap failed carries its error and
	// keeps serving its previous generation.
	Shards []shard.ReloadResult `json:"shards,omitempty"`
	// TextStageMS is the part of Took spent in the new generation's
	// full-text stage (run once, shared by the four strategies).
	TextStageMS int64 `json:"text_stage_ms"`
	// Took is the off-line rebuild duration (old generation kept
	// serving throughout).
	Took time.Duration `json:"took"`
}

// Reload builds the next generation through the registered ReloadFunc
// and atomically swaps it in: the old generation serves every request
// admitted before the flip and is released once they finish; the
// result cache is purged (entries are epoch-keyed, so this frees
// memory rather than correctness); breaker and keyword-cache state
// start fresh with the new generation's systems. Reload blocks on the
// admin mutation gate, so it serializes with live ingests and
// compaction cycles as well as with other reloads.
func (s *Server) Reload(ctx context.Context) (*ReloadStatus, error) {
	if s.reloader == nil {
		return nil, errReloadNotConfigured
	}
	s.lockAdmin()
	defer s.unlockAdmin()
	return s.reloadLocked(ctx)
}

// reloadLocked is Reload under an already-held admin gate (the HTTP
// handler and the compactor acquire it themselves).
func (s *Server) reloadLocked(ctx context.Context) (*ReloadStatus, error) {
	if s.reloader == nil {
		return nil, errReloadNotConfigured
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	ctx, sp := obs.StartSpan(ctx, "server.reload")
	defer sp.End()
	start := time.Now()
	data, err := s.reloader(ctx)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, fmt.Errorf("reload: %w", err)
	}
	if data == nil || data.Corpus == nil || data.Collection == nil {
		return nil, fmt.Errorf("reload: reloader returned no data")
	}
	next := newGeneration(s.gen.Load().Num+1, data.Corpus, data.Collection, s.cfg)
	if s.peerAPI != nil {
		// Serving as a federation peer: the new generation's builders must
		// answer with coordinator-pinned norms and the last installed
		// cluster-global statistics, or this reload would silently fall
		// back to partition-local scoring mid-federation.
		s.peerAPI.WireGeneration(systemsByName(next.systems))
	}
	if s.seg != nil {
		// Live ingestion: attach the segment to the cold generation,
		// then rebase it over the new corpus, replaying whatever the WAL
		// still holds (empty after a compaction; the live delta after a
		// plain reload — acknowledged ingests survive the reload). The
		// rebase runs before the swap so a failure aborts cleanly with
		// the old generation and old segment state intact.
		s.wireGeneration(next)
		first := ontoscore.Strategies()[0]
		stats := next.systems[first].Builder().LocalTextStats()
		if err := s.seg.Rebase(data.Corpus, stats, s.wal.Ops()); err != nil {
			return nil, fmt.Errorf("reload: rebasing delta segment: %w", err)
		}
	}
	// Attach (or rebuild) memory-mapped arenas on the cold generation
	// before it starts serving: the new corpus has a new fingerprint, so
	// with Rebuild on this is also where a compaction or reload
	// materializes fresh arena files. Never fatal — a missing or stale
	// arena just means heap serving for that strategy.
	s.attachArenas(next)
	// Roll the shard cluster before flipping the server generation:
	// per-shard swaps are independent, so one failed shard keeps its
	// previous partition while the rest advance with the new corpus.
	var shardResults []shard.ReloadResult
	if s.cluster != nil {
		shardResults = s.cluster.Reload(ctx, data.Corpus, data.Collection)
	}
	old := s.gen.Swap(next)
	// Epoch-keyed entries for the old generation are unreachable by new
	// requests; purge them so the memory goes with the old corpus.
	s.svc.Cache().Purge()
	if data.Ingest != nil {
		s.lastIngest.Store(data.Ingest)
	}
	sp.SetAttr("generation", next.Num)
	sp.SetAttr("documents", data.Corpus.Len())
	status := &ReloadStatus{
		Generation:  next.Num,
		Documents:   data.Corpus.Len(),
		Ingest:      data.Ingest,
		Shards:      shardResults,
		TextStageMS: next.textTook.Milliseconds(),
		Took:        time.Since(start),
	}
	s.logf("server: generation %d active (%d documents, reload took %v); draining generation %d",
		next.Num, status.Documents, status.Took.Round(time.Millisecond), old.Num)
	return status, nil
}

var errReloadNotConfigured = fmt.Errorf("reload: no reloader configured")
