// Package server exposes an XOntoRank instance as a JSON HTTP service:
// ontology-aware search, fragment retrieval (the Database Access
// Module's contract over HTTP), concept lookup, OntoScore explanations,
// and corpus statistics.
//
// Endpoints:
//
//	GET /search?q=<query>&k=<n>&offset=<n>&strategy=<name>&fragments=1&snippets=1&group=1
//	GET /fragment?id=<dewey>
//	GET /concepts?keyword=<w>[&system=<oid>]
//	GET /ontoscore?keyword=<w>&strategy=<name>[&system=<oid>]
//	GET /stats
//	GET /metrics
//	GET /healthz
//	GET /readyz
//	POST /admin/reload
//
// Searches flow through the internal/serving layer: a sharded LRU
// result cache, singleflight deduplication of concurrent identical
// queries, and semaphore admission control with per-request deadlines.
// Overload is answered with 429, deadline expiry with 504, both as
// JSON errors. /metrics exposes the serving counters.
//
// Failure handling: every handler runs under panic recovery (a bug in
// one request becomes a 500, not a dead process); shards or peers that
// do not answer degrade search to partial results, flagged with
// "degraded": true and a Warning header rather than an error status;
// /healthz is shallow liveness while /readyz runs deep checks
// (registered dependencies, corpus loaded, shard quorum, active
// generation, last-ingest summary).
//
// Data plane: the corpus, collection, and per-strategy systems live in
// an immutable generation behind an atomic pointer (see
// generation.go). POST /admin/reload (or SIGHUP in xontoserve)
// rebuilds the data set off-line through the registered ReloadFunc and
// swaps generations with zero downtime: in-flight requests finish on
// the generation they started with, new requests land on the new one,
// and the old generation is released once drained.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/peer"
	"repro/internal/query"
	"repro/internal/serving"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// FPSearch fires at the top of the /search handler (tests arm it in
// panic mode to exercise the recovery middleware).
const FPSearch = "server.search"

// SearchOutcome is the unit one search execution produces and the
// serving layer caches: the results plus how they were computed.
// Degraded and partial outcomes (part of the answer scored IR-only by a
// peer of an older release; a subset of shards because some did not
// answer) are excluded from the result cache so recovery is visible
// immediately.
type SearchOutcome struct {
	Results  []core.Result
	Degraded bool
	// Partial is true when the search was answered by a subset of the
	// cluster's shards (sharded serving only).
	Partial bool
	// Shards is the per-shard participation report (sharded serving
	// only).
	Shards []core.ShardStatus
	// Timing is the pipeline breakdown of the execution that produced
	// the results; for cache hits it describes the original execution.
	Timing core.Timing
	// Pruning reports the top-k merge's skipping work (summed across
	// shards); for cache hits it describes the original execution.
	Pruning query.PruneStats

	// memo holds the rendered plain /search body once the outcome has
	// been rendered twice (cacheable outcomes only; see writeSearch).
	memo *renderMemo
}

// cacheable reports whether the result cache may keep the outcome.
func (o SearchOutcome) cacheable() bool { return !o.Degraded && !o.Partial }

// Searcher is the query surface a generation serves searches through:
// *core.System single-node, *shard.Sharded when sharding is enabled.
type Searcher interface {
	Query(ctx context.Context, req core.SearchRequest) (*core.SearchResponse, error)
	Snippet(core.Result) string
	Fragment(core.Result) string
	KeywordCacheMetrics() serving.CacheMetrics
	KeywordListBytes() int64
}

// Server answers HTTP requests against the active generation — an
// immutable snapshot of corpus, ontology collection, and one prepared
// system per strategy — swappable at runtime via Reload.
type Server struct {
	cfg    core.Config
	gen    gen.Cell[generation, *generation]
	svc    *serving.Service[SearchOutcome]
	mux    *http.ServeMux
	logf   func(format string, args ...any)
	tracer *obs.Tracer
	reg    *obs.Registry

	// cluster, when non-nil, serves /search by scatter-gather over
	// document shards (EnableSharding); the generation keeps the full
	// corpus so fragment, stats, and explanation endpoints are
	// unaffected.
	cluster *shard.Cluster

	// peerAPI, when non-nil, is the mounted internal shard API
	// (EnablePeerAPI): this node answers /shard/* for a federated
	// coordinator, and reloads re-wire each new generation for
	// coordinator-pinned norms and global statistics.
	peerAPI *peer.Handler

	reloadMu    sync.Mutex
	reloader    ReloadFunc
	releaseHook func(num uint64)
	lastIngest  atomic.Pointer[ingest.Report]

	// admin is the mutation gate: one token serializes /admin/ingest,
	// /admin/reload, SIGHUP reloads, and compaction cycles. HTTP
	// callers try-acquire and answer 409; Reload blocks; the compactor
	// skips benignly.
	admin chan struct{}

	// seg/wal/compactor are the live-ingestion plane (EnableDelta);
	// all nil when live ingestion is off.
	seg       *delta.Segment
	wal       *delta.WAL
	compactor *delta.Compactor
	dcfg      DeltaConfig

	// acfg, when Dir is set, turns on memory-mapped index serving
	// (EnableArena): each generation maps one arena file per strategy
	// and unmaps it when it drains.
	acfg ArenaConfig

	readyMu sync.Mutex
	ready   []readyCheck
}

type readyCheck struct {
	name  string
	check func() error
}

// New prepares the service with serving.DefaultConfig bounds. Systems
// are built for all four strategies; searches run on demand (no bulk
// index build), so startup is fast.
func New(corpus *xmltree.Corpus, coll *ontology.Collection, cfg core.Config) *Server {
	return NewServing(corpus, coll, cfg, serving.DefaultConfig())
}

// runtimeMetric reads one runtime/metrics sample, a counter or gauge of
// the Go runtime, at exposition time.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64 {
			return s[0].Value.Float64()
		}
		return float64(s[0].Value.Uint64())
	}
}

// NewServing is New with explicit serving-layer bounds (cache size and
// TTL, concurrency, queue wait, per-request deadline).
func NewServing(corpus *xmltree.Corpus, coll *ontology.Collection, cfg core.Config, scfg serving.Config) *Server {
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		logf:   log.Printf,
		tracer: obs.NewTracer(obs.DefaultTraceCapacity),
		reg:    obs.NewRegistry(),
		admin:  make(chan struct{}, 1),
	}
	s.gen.Start(newGeneration(1, corpus, coll, cfg), s.drained)
	s.svc = serving.NewService(scfg, s.execSearch)
	s.svc.SetCacheFilter(SearchOutcome.cacheable)
	s.svc.Instrument(s.reg, "xontorank_search")
	s.reg.GaugeFunc("xontorank_generation",
		"Active data-plane generation number (advances on each hot reload).",
		func() float64 { return float64(s.gen.Load().Num) })
	s.reg.GaugeFunc("xontorank_corpus_documents",
		"Documents in the active corpus.",
		func() float64 { return float64(s.gen.Load().corpus.Len()) })
	const buildHelp = "Build time of the active generation: its one full-text stage, and the per-strategy systems over it."
	s.reg.GaugeFunc("xontorank_generation_build_seconds", buildHelp,
		func() float64 { return s.gen.Load().textTook.Seconds() },
		obs.Label{Key: "stage", Value: "text"})
	s.reg.GaugeFunc("xontorank_generation_build_seconds", buildHelp,
		func() float64 { g := s.gen.Load(); return (g.buildTook - g.textTook).Seconds() },
		obs.Label{Key: "stage", Value: "systems"})
	s.reg.CounterFunc("query_merge_postings_total",
		"Postings consumed by the fast DIL merge.",
		func() float64 { return float64(query.MergeCountersSnapshot().Postings) })
	s.reg.CounterFunc("query_merge_blocks_skipped_total",
		"Whole posting-list blocks bypassed by document zig-zag seeks.",
		func() float64 { return float64(query.MergeCountersSnapshot().BlocksSkipped) })
	s.reg.CounterFunc("query_merge_docs_skipped_total",
		"Documents skipped by the block-max top-k merge without scoring.",
		func() float64 { return float64(query.MergeCountersSnapshot().DocsSkipped) })
	s.reg.CounterFunc("query_merge_early_terminations_total",
		"Merges ended early because no remaining posting could reach the top k.",
		func() float64 { return float64(query.MergeCountersSnapshot().EarlyTerminations) })
	s.reg.CounterFunc("xontorank_go_gc_cpu_seconds_total",
		"CPU time the Go runtime estimates it spent collecting garbage, over the process's life.",
		runtimeMetric("/cpu/classes/gc/total:cpu-seconds"))
	s.reg.GaugeFunc("xontorank_go_heap_live_bytes",
		"Heap bytes the last garbage collection marked live.",
		runtimeMetric("/gc/heap/live:bytes"))
	s.reg.GaugeFunc("xontorank_memory_bytes",
		"Bytes the active generation keeps resident, by structure: keyword_lists is the encoded size of the lists its keyword caches hold.",
		func() float64 {
			var n int64
			g := s.gen.Load()
			for st := range g.systems {
				n += s.searcher(g, st).KeywordListBytes()
			}
			return float64(n)
		},
		obs.Label{Key: "structure", Value: "keyword_lists"})
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/fragment", s.handleFragment)
	s.mux.HandleFunc("/concepts", s.handleConcepts)
	s.mux.HandleFunc("/ontoscore", s.handleOntoScore)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/admin/reload", s.handleAdminReload)
	s.mux.HandleFunc("/admin/ingest", s.handleAdminIngest)
	s.mux.Handle("/debug/traces", s.tracer.Handler())
	return s
}

// EnableDebug mounts net/http/pprof under /debug/pprof/. Off by
// default: profiling endpoints expose internals and cost CPU, so the
// binary opts in explicitly (xontoserve's -debug flag).
func (s *Server) EnableDebug() { obs.RegisterPprof(s.mux) }

// Registry exposes the metrics registry so binaries can register their
// own instruments next to the server's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the span tracer backing /debug/traces.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SetLogf redirects the server's log output (panics, readiness
// failures); nil restores log.Printf.
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	s.logf = logf
}

// AddReadyCheck registers a named dependency probe for /readyz (e.g.
// the data directory). Checks run on every /readyz request; an error
// marks the server unready (503).
func (s *Server) AddReadyCheck(name string, check func() error) {
	s.readyMu.Lock()
	s.ready = append(s.ready, readyCheck{name: name, check: check})
	s.readyMu.Unlock()
}

// Serving exposes the serving layer (tests and benchmarks inspect its
// metrics and cache).
func (s *Server) Serving() *serving.Service[SearchOutcome] { return s.svc }

// System returns the active generation's prepared system for a
// strategy (tests compare serving output against direct system
// searches).
func (s *Server) System(st ontoscore.Strategy) *core.System { return s.gen.Load().systems[st] }

// EnableSharding partitions the active corpus into cfg.Shards document
// shards and routes every search through scatter-gather over them
// (cfg.Core is overridden with the server's own core configuration so
// shard ranking matches the single-node systems). With cfg.Peers set
// the cluster federates: remote xontoserve nodes serve additional
// slots over the HTTP shard API, with the cross-shard statistics
// exchange run at build and reload time so federated ranking stays
// byte-identical to single-node. Call once, before serving traffic.
// Reloads roll through the cluster shard by shard; /readyz gains
// per-shard status and a quorum requirement; /metrics gains per-shard
// instruments (and per-peer transport counters when federated).
func (s *Server) EnableSharding(cfg shard.Config) *shard.Cluster {
	g := s.gen.Load()
	cfg.Core = s.cfg
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) { s.logf(format, args...) }
	}
	s.cluster = shard.New(g.corpus, g.side, cfg)
	s.cluster.Instrument(s.reg)
	s.instrumentPeers(cfg.Peers)
	return s.cluster
}

// Cluster returns the shard cluster, nil when sharding is not enabled.
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// searcher picks the query surface for one strategy: the scatter-gather
// facade when sharding is enabled, the generation's own system
// otherwise.
func (s *Server) searcher(g *generation, st ontoscore.Strategy) Searcher {
	if s.cluster != nil {
		return s.cluster.System(st)
	}
	return g.systems[st]
}

// execSearch is the serving layer's uncached path: resolve the
// generation the request pinned (preserved through the singleflight's
// detached context) and the strategy's system, and run the
// ontology-aware search under ctx. K and Offset pass through natively:
// the merge itself produces the requested window, so no handler slices
// after it (and the top-k heap never works past offset+k).
func (s *Server) execSearch(ctx context.Context, req serving.Request) (SearchOutcome, error) {
	st, err := ontoscore.ParseStrategy(req.Strategy)
	if err != nil {
		return SearchOutcome{}, err
	}
	g, ok := generationFrom(ctx)
	if !ok {
		// Direct serving-layer callers (benchmarks, tests) bypass
		// ServeHTTP; serve them from the active generation.
		g = s.gen.Pin()
		defer s.gen.Release(g)
	}
	resp, err := s.searcher(g, st).Query(ctx, core.SearchRequest{Query: req.Query, K: req.K, Offset: req.Offset})
	if err != nil {
		return SearchOutcome{}, err
	}
	out := SearchOutcome{
		Results:  resp.Results,
		Degraded: resp.Info.Degraded,
		Partial:  resp.Partial,
		Shards:   resp.Shards,
		Timing:   resp.Timing,
		Pruning:  resp.Pruning,
	}
	if out.cacheable() {
		out.memo = new(renderMemo)
	}
	return out, nil
}

// statusWriter records the status code a handler writes so that
// ServeHTTP can attach it to the request span and counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler. Every handler runs under panic
// recovery: a panicking request is answered with a JSON 500 (when the
// header is still unwritten) and logged with its stack, instead of
// tearing down the connection — or, under http.Server without this
// middleware, killing the whole process via an unhandled goroutine
// panic in handler-spawned work.
//
// Each request also pins the active generation for its whole lifetime
// (carried in the request context): a concurrent reload swaps the
// pointer for future requests but cannot take this request's corpus
// away mid-flight. The pin is released when the handler returns; the
// last release of a superseded generation marks it drained.
// Each request is one trace: ServeHTTP roots an "http.request" span in
// the request context, answers with an X-Trace-Id header, and records
// the final status on the span, in the xontorank_http_requests_total
// counter, and in a structured access-log line (obs default logger,
// trace-correlated).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g := s.gen.Pin()
	defer s.gen.Release(g)
	ctx := context.WithValue(r.Context(), genCtxKey{}, g)
	ctx, root := s.tracer.StartRoot(ctx, "http.request")
	root.SetAttr("method", r.Method)
	root.SetAttr("path", r.URL.Path)
	w.Header().Set("X-Trace-Id", root.TraceID())
	sw := &statusWriter{ResponseWriter: w}
	r = r.WithContext(ctx)
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { // deliberate abort, not a bug
				root.SetAttr("aborted", true)
				root.End()
				panic(rec)
			}
			s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			writeError(sw, http.StatusInternalServerError, "internal server error")
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		root.SetAttr("status", sw.status)
		root.End()
		s.reg.Counter("xontorank_http_requests_total", "HTTP requests by path and status.",
			obs.Label{Key: "path", Value: metricPath(r.URL.Path)},
			obs.Label{Key: "status", Value: strconv.Itoa(sw.status)}).Inc()
		if l := obs.Default(); l.Enabled(ctx, slog.LevelInfo) {
			l.InfoContext(ctx, "request",
				"method", r.Method, "path", r.URL.Path, "status", sw.status,
				"duration_us", time.Since(start).Microseconds())
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// metricPath bounds the path label's cardinality to the mounted
// endpoints; anything else (typo probes, scanners) shares one bucket.
func metricPath(p string) string {
	switch p {
	case "/search", "/fragment", "/concepts", "/ontoscore", "/stats",
		"/metrics", "/healthz", "/readyz", "/admin/reload", "/admin/ingest",
		"/debug/traces",
		peer.PathSearch, peer.PathStats, peer.PathFragment:
		return p
	default:
		return "other"
	}
}

// reqGen returns the generation ServeHTTP pinned for this request.
func (s *Server) reqGen(r *http.Request) *generation {
	if g, ok := generationFrom(r.Context()); ok {
		return g
	}
	// Handlers invoked outside ServeHTTP (not expected): active
	// generation, unpinned — reads stay safe, drain accounting may be
	// early but never corrupts.
	return s.gen.Load()
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxPooledBody bounds the response buffers respBufs keeps: a rare
// large body (a deep /ontoscore, /stats over many ontologies) is
// encoded once and left to the collector instead of pinning its
// capacity in the pool.
const maxPooledBody = 1 << 20

var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers v as compact JSON in one length-prefixed write. The
// body is encoded into a pooled buffer before any header goes out, so a
// value encoding/json rejects (a NaN score) is answered with the JSON
// 500 contract instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeEncodeFailure(w, buf, err)
		return
	}
	writeBody(w, status, buf)
}

// writeEncodeFailure answers the JSON 500 for a body encoding/json
// rejected, in buf.
func writeEncodeFailure(w http.ResponseWriter, buf *bytes.Buffer, err error) {
	buf.Reset()
	// A struct of one string always encodes.
	_ = json.NewEncoder(buf).Encode(errorResponse{Error: "encode response: " + err.Error()})
	writeBody(w, http.StatusInternalServerError, buf)
}

// writeBody writes buf as a length-prefixed JSON body and returns it to
// respBufs.
func writeBody(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		putRespBuf(buf)
	}
}

// putRespBuf returns a response buffer to respBufs. Built with the
// poison tag, it first fills the buffer's whole capacity with 0xFF, so
// a body still read after its buffer went back — by a handler, or by a
// memo that kept a view instead of a copy — comes out as invalid JSON
// instead of another response's bytes.
func putRespBuf(buf *bytes.Buffer) {
	if poison {
		buf.Reset()
		b := buf.AvailableBuffer()
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	respBufs.Put(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeServingError maps serving-layer failures onto the JSON error
// contract: 429 when shedding load, 504 on deadline expiry.
func writeServingError(w http.ResponseWriter, err error) {
	status := serving.StatusFor(err)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		writeError(w, status, "server overloaded, retry later")
	case http.StatusGatewayTimeout:
		writeError(w, status, "search deadline exceeded")
	default:
		writeError(w, status, "%v", err)
	}
}

// maxQueryBody caps request bodies on the query endpoints. /search and
// /ontoscore take their input from the URL, but HTTP allows a body on
// any request — without a cap, a client streaming gigabytes alongside a
// GET would be read to completion by the connection machinery. 64 KiB
// admits any legitimate payload (there is none) while bounding the read.
const maxQueryBody = 64 << 10

// capRequestBody drains a size-capped request body, answering 413 with
// the JSON error contract when the cap is exceeded (false = the
// response has been written). Only /admin/ingest consumes its body;
// everywhere else the body is protocol ballast that still must be
// bounded.
func capRequestBody(w http.ResponseWriter, r *http.Request) bool {
	if r.Body == nil {
		return true
	}
	if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "read request body: %v", err)
		return false
	}
	return true
}

func strategyParam(qv url.Values) (ontoscore.Strategy, error) {
	name := qv.Get("strategy")
	if name == "" {
		return ontoscore.StrategyRelationships, nil
	}
	return ontoscore.ParseStrategy(name)
}

// SearchMatch is one keyword's supporting node in a search result.
type SearchMatch struct {
	Keyword string  `json:"keyword"`
	ID      string  `json:"id"`
	Path    string  `json:"path"`
	Score   float64 `json:"score"`
}

// SearchResult is one JSON search answer.
type SearchResult struct {
	ID       string        `json:"id"`
	Score    float64       `json:"score"`
	Document string        `json:"document"`
	Path     string        `json:"path"`
	Matches  []SearchMatch `json:"matches"`
	Snippet  string        `json:"snippet,omitempty"`
	Fragment string        `json:"fragment,omitempty"`
}

// SearchGroup collects structurally identical results (same element
// path) into one presentation unit, after Hristidis et al. (TKDE 2006).
type SearchGroup struct {
	Path    string         `json:"path"`
	Results []SearchResult `json:"results"`
}

// ResponseTiming is the /search timing breakdown: the pipeline stages
// of the execution that produced the results (for cache hits, of the
// original execution) plus the handler-measured total for this
// request.
type ResponseTiming struct {
	core.Timing
	HandlerUS int64 `json:"handler_us"`
}

// SearchResponse is the /search payload.
type SearchResponse struct {
	// V versions the wire format. Version 1 added info, timing,
	// trace_id, and trace to the original fields; consumers should
	// ignore fields they do not know.
	V        int            `json:"v"`
	Query    string         `json:"query"`
	Strategy string         `json:"strategy"`
	K        int            `json:"k"`
	Offset   int            `json:"offset,omitempty"`
	Results  []SearchResult `json:"results"`
	// Pruning reports the block-max top-k merge's skipping work for
	// this answer (summed across shards; all-zero for cache hits of an
	// exhaustive execution or the ranked RDIL path).
	Pruning query.PruneStats `json:"pruning"`
	// Degraded is true when the answer is in any way less than the
	// full ontology-aware one: under sharded serving some shards did
	// not answer, or a peer of an older release scored part of it
	// IR-only (NS(v,w) = IRS(v,w)). The response carries one canonical
	// Warning header naming every reason; the detail lives in Info,
	// Partial, and Shards.
	Degraded bool `json:"degraded"`
	// Partial is true when a subset of the cluster's shards answered
	// (sharded serving only); results cover only those shards.
	Partial bool `json:"partial,omitempty"`
	// Shards reports per-shard participation (sharded serving only).
	Shards []core.ShardStatus `json:"shards,omitempty"`
	// Groups is present when group=1: the same results grouped by the
	// element path of their roots, in order of each group's best hit.
	Groups []SearchGroup `json:"groups,omitempty"`
	// Info reports how the query was answered (Degraded here is the
	// IR-only reason alone).
	Info query.Info `json:"info"`
	// Timing is the per-stage latency breakdown.
	Timing ResponseTiming `json:"timing"`
	// TraceID identifies this request's trace (also in the X-Trace-Id
	// header).
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's span tree so far; present when
	// debug=trace, which also bypasses the result cache so the full
	// pipeline (keyword resolution, DIL build, OntoScore propagation)
	// is on the tree.
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hit(FPSearch); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !capRequestBody(w, r) {
		return
	}
	qv := r.URL.Query()
	q := qv.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	strategy, err := strategyParam(qv)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// K/Offset follow the one validation policy (query.ClampK and
	// friends): negative or malformed is a 400, zero means the
	// configured default, and values past the documented caps clamp.
	k := 0
	if ks := qv.Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil || k < 0 {
			writeError(w, http.StatusBadRequest, "k must be a non-negative integer")
			return
		}
	}
	k = query.ClampK(k, s.cfg.Query.K)
	offset := 0
	if os := qv.Get("offset"); os != "" {
		offset, err = strconv.Atoi(os)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
			return
		}
	}
	offset = query.ClampOffset(offset)
	withTrace := qv.Get("debug") == "trace"

	start := time.Now()
	g := s.reqGen(r)
	out, err := s.svc.Search(r.Context(), serving.Request{
		Strategy: strategy.String(),
		Query:    query.Normalize(q),
		K:        k,
		Offset:   offset,
		Epoch:    s.epoch(g),
		NoCache:  withTrace,
	})
	if err != nil {
		writeServingError(w, err)
		return
	}
	rep := searchReply{
		query: q, strategy: strategy.String(), k: k, offset: offset,
		sys:      s.searcher(g, strategy),
		snippets: qv.Get("snippets") == "1", fragments: qv.Get("fragments") == "1", groups: qv.Get("group") == "1",
		handlerUS: time.Since(start).Microseconds(),
		traceID:   obs.TraceID(r.Context()),
	}
	if withTrace {
		if root := obs.SpanFromContext(r.Context()).Root(); root != nil {
			t := root.Tree()
			rep.trace = &t
		}
	}
	if warn := degradeWarning(out); warn != "" {
		// One canonical Warning header however many degrade paths
		// fired; the machine-readable detail is in the JSON body.
		w.Header().Set("Warning", warn)
	}
	writeSearch(w, out, &rep)
}

// searchReply is one /search request's answer: the parameters its
// middle depends on (all but the optional parts are in the result-cache
// key) and the per-request parts spliced around it.
type searchReply struct {
	query     string
	strategy  string
	k, offset int
	sys       Searcher

	snippets, fragments, groups bool

	handlerUS int64
	traceID   string
	trace     *obs.SpanTree
}

// plain reports whether the reply is the one shape whose middle is
// memoized: no snippets, fragments, groups or trace.
func (rep *searchReply) plain() bool {
	return !rep.snippets && !rep.fragments && !rep.groups && rep.trace == nil
}

// response builds the body writeSearch cuts the middle from: query "",
// handler_us 0, and no trace_id or trace.
func (rep *searchReply) response(out SearchOutcome) SearchResponse {
	// No post-merge slicing: the merge already produced exactly the
	// [offset, offset+k) window.
	resp := SearchResponse{
		V:        1,
		Strategy: rep.strategy, K: rep.k, Offset: rep.offset,
		Results:  make([]SearchResult, 0, len(out.Results)),
		Pruning:  out.Pruning,
		Degraded: out.Degraded || out.Partial,
		Partial:  out.Partial, Shards: out.Shards,
		Info:   query.Info{Degraded: out.Degraded},
		Timing: ResponseTiming{Timing: out.Timing},
	}
	for _, res := range out.Results {
		sr := SearchResult{
			ID:       res.Root.String(),
			Score:    res.Score,
			Document: res.Document,
			Path:     res.Path,
		}
		// A result without matches keeps its nil slice ("matches": null).
		if len(res.Matches) > 0 {
			sr.Matches = make([]SearchMatch, 0, len(res.Matches))
		}
		for _, m := range res.Matches {
			sr.Matches = append(sr.Matches, SearchMatch{
				Keyword: m.Keyword, ID: m.ID.String(), Path: m.Path, Score: m.Score,
			})
		}
		if rep.snippets {
			sr.Snippet = rep.sys.Snippet(res)
		}
		if rep.fragments {
			sr.Fragment = rep.sys.Fragment(res)
		}
		resp.Results = append(resp.Results, sr)
	}
	if rep.groups {
		index := make(map[string]int)
		for _, sr := range resp.Results {
			gi, ok := index[sr.Path]
			if !ok {
				gi = len(resp.Groups)
				index[sr.Path] = gi
				resp.Groups = append(resp.Groups, SearchGroup{Path: sr.Path})
			}
			resp.Groups[gi].Results = append(resp.Groups[gi].Results, sr)
		}
	}
	return resp
}

// degradeWarning renders the single canonical Warning header value for
// an outcome, joining every degrade reason that fired ("" when none
// did). Deduplicating here — one producer for the header — keeps
// multiple degrade paths (an older peer's IR-only answer, partial
// shard answers)
// from stacking repeated Warning values on one response.
func degradeWarning(out SearchOutcome) string {
	var reasons []string
	if out.Degraded {
		reasons = append(reasons, "ontology path unavailable; results are IR-only")
	}
	if out.Partial {
		down := 0
		for _, st := range out.Shards {
			if st.State != "ok" {
				down++
			}
		}
		reasons = append(reasons, fmt.Sprintf("%d/%d shards unavailable; results are partial", down, len(out.Shards)))
	}
	if len(reasons) == 0 {
		return ""
	}
	return `199 - "` + strings.Join(reasons, "; ") + `"`
}

func (s *Server) handleFragment(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("id")
	if idStr == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter id")
		return
	}
	id, err := xmltree.ParseDewey(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad dewey id: %v", err)
		return
	}
	// Resolve through the generation's system rather than the corpus
	// directly: live delta documents are not in the base corpus, and
	// the system's auxiliary source covers them.
	g := s.reqGen(r)
	n := g.systems[ontoscore.StrategyRelationships].NodeAt(id)
	if n == nil || (s.seg != nil && s.seg.IsDead(id.DocID())) {
		writeError(w, http.StatusNotFound, "no element at %s", idStr)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	_ = xmltree.WriteXML(w, n)
}

// ConceptInfo is one ontology concept in JSON form.
type ConceptInfo struct {
	System    string   `json:"system"`
	Code      string   `json:"code"`
	Preferred string   `json:"preferred"`
	Synonyms  []string `json:"synonyms,omitempty"`
}

func (s *Server) handleConcepts(w http.ResponseWriter, r *http.Request) {
	kw := r.URL.Query().Get("keyword")
	if kw == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter keyword")
		return
	}
	systemFilter := r.URL.Query().Get("system")
	var out []ConceptInfo
	for _, ont := range s.reqGen(r).side.Collection().Ontologies() {
		if systemFilter != "" && ont.SystemID != systemFilter {
			continue
		}
		for _, id := range ont.ConceptsContaining(kw) {
			c := ont.Concept(id)
			out = append(out, ConceptInfo{
				System: ont.SystemID, Code: c.Code,
				Preferred: c.Preferred, Synonyms: c.Synonyms,
			})
		}
	}
	if out == nil {
		out = []ConceptInfo{}
	}
	writeJSON(w, http.StatusOK, out)
}

// OntoScoreEntry is one concept's score for a keyword.
type OntoScoreEntry struct {
	System    string  `json:"system"`
	Code      string  `json:"code"`
	Preferred string  `json:"preferred"`
	Score     float64 `json:"score"`
}

func (s *Server) handleOntoScore(w http.ResponseWriter, r *http.Request) {
	if !capRequestBody(w, r) {
		return
	}
	qv := r.URL.Query()
	kw := qv.Get("keyword")
	if kw == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter keyword")
		return
	}
	strategy, err := strategyParam(qv)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// k follows the shared policy: negative/malformed is a 400, zero
	// (or absent) keeps the historical every-concept answer, > MaxK
	// clamps.
	k := 0
	if ks := qv.Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil || k < 0 {
			writeError(w, http.StatusBadRequest, "k must be a non-negative integer")
			return
		}
		if k > query.MaxK {
			k = query.MaxK
		}
	}
	// OntoScore explanations run full ontology-graph expansions, so
	// they share the serving layer's admission semaphore and deadline
	// (without result caching).
	ctx, release, err := s.svc.Admit(r.Context())
	if err != nil {
		writeServingError(w, err)
		return
	}
	defer release()
	g := s.reqGen(r)
	systemFilter := qv.Get("system")
	builder := g.systems[strategy].Builder()
	var out []OntoScoreEntry
	for _, ont := range g.side.Collection().Ontologies() {
		if systemFilter != "" && ont.SystemID != systemFilter {
			continue
		}
		if err := ctx.Err(); err != nil {
			writeServingError(w, err)
			return
		}
		comp := builder.Computer(ont.SystemID)
		if comp == nil {
			continue
		}
		for id, v := range comp.Compute(strategy, kw) {
			c := ont.Concept(id)
			out = append(out, OntoScoreEntry{
				System: ont.SystemID, Code: c.Code, Preferred: c.Preferred, Score: v,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].Code < out[j].Code
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	if out == nil {
		out = []OntoScoreEntry{}
	}
	writeJSON(w, http.StatusOK, out)
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Documents     int     `json:"documents"`
	Elements      int     `json:"elements"`
	CodeNodes     int     `json:"codeNodes"`
	AvgElements   float64 `json:"avgElements"`
	AvgReferences float64 `json:"avgReferences"`
	Systems       []struct {
		System        string `json:"system"`
		Name          string `json:"name"`
		Concepts      int    `json:"concepts"`
		Relationships int    `json:"relationships"`
	} `json:"ontologies"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	g := s.reqGen(r)
	cs := g.corpus.Stats()
	resp := StatsResponse{
		Documents:     cs.Documents,
		Elements:      cs.Elements,
		CodeNodes:     cs.CodeNodes,
		AvgElements:   cs.AvgElems,
		AvgReferences: cs.AvgCodeRef,
	}
	for _, ont := range g.side.Collection().Ontologies() {
		resp.Systems = append(resp.Systems, struct {
			System        string `json:"system"`
			Name          string `json:"name"`
			Concepts      int    `json:"concepts"`
			Relationships int    `json:"relationships"`
		}{ont.SystemID, ont.Name, ont.Len(), ont.NumRelationships()})
	}
	writeJSON(w, http.StatusOK, resp)
}

// MetricsResponse is the legacy /metrics?format=json payload:
// serving-layer counters plus each strategy's bounded keyword-cache
// counters.
type MetricsResponse struct {
	Serving       serving.Metrics                 `json:"serving"`
	KeywordCaches map[string]serving.CacheMetrics `json:"keywordCaches"`
}

// handleMetrics serves the obs registry in the Prometheus text
// exposition format (counters, gauges, and the search latency
// histogram). The pre-registry JSON shape survives under ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "json" {
		s.reg.Handler().ServeHTTP(w, r)
		return
	}
	g := s.reqGen(r)
	resp := MetricsResponse{
		Serving:       s.svc.Metrics(),
		KeywordCaches: make(map[string]serving.CacheMetrics, len(g.systems)),
	}
	for st, sys := range g.systems {
		resp.KeywordCaches[st.String()] = sys.KeywordCacheMetrics()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is shallow liveness: the process is up and able to
// answer HTTP. Deep dependency checks live on /readyz so that a sick
// dependency does not get the process restarted by a liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyResponse is the /readyz payload.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Generation is the active data-plane generation (advances on each
	// successful reload).
	Generation uint64 `json:"generation"`
	// Documents is the active corpus size.
	Documents int `json:"documents"`
	// Checks maps each registered dependency probe to "ok" or its error.
	Checks map[string]string `json:"checks,omitempty"`
	// Degraded is set when a shard is not ready while the quorum still
	// is: search answers, partially, so the server stays in rotation.
	Degraded bool `json:"degraded"`
	// Shards is the per-shard deep readiness report (sharded serving
	// only): each shard's id, generation, breaker state, and manifest.
	Shards []shard.Status `json:"shards,omitempty"`
	// ShardQuorum is how many shards must be ready; fewer ready shards
	// makes the whole server unready (503) — too much of the corpus is
	// unsearchable to keep the instance in rotation.
	ShardQuorum int `json:"shardQuorum,omitempty"`
	// LastIngest summarizes the ingestion run behind the active data
	// set, when the corpus came through the pipeline.
	LastIngest *ingest.Report `json:"lastIngest,omitempty"`
	// Delta reports live-ingestion lag (EnableDelta only): acknowledged
	// operations not yet folded into a base generation.
	Delta *DeltaStatus `json:"delta,omitempty"`
}

// handleReadyz is deep readiness: every registered dependency check
// must pass and the corpus must hold documents; otherwise 503. A shard
// that is not ready flips Degraded without failing readiness while the
// quorum holds — pulling a degraded-but-serving instance out of
// rotation would turn a partial outage into a full one.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	g := s.reqGen(r)
	resp := ReadyResponse{
		Ready:      true,
		Generation: g.Num,
		Documents:  g.corpus.Len(),
		Checks:     make(map[string]string),
		LastIngest: s.lastIngest.Load(),
		Delta:      s.deltaStatus(),
	}
	// A federated coordinator may hold a small (or empty) local
	// partition; what matters for rotation is that the cluster as a
	// whole serves documents, so the federation's count backs the check.
	docs := g.corpus.Stats().Documents
	if s.cluster != nil {
		if n := s.cluster.Documents(); n > docs {
			docs = n
		}
	}
	if docs == 0 {
		resp.Ready = false
		resp.Checks["corpus"] = "no documents loaded"
	} else {
		resp.Checks["corpus"] = "ok"
	}
	s.readyMu.Lock()
	checks := append([]readyCheck(nil), s.ready...)
	s.readyMu.Unlock()
	for _, c := range checks {
		if err := c.check(); err != nil {
			resp.Ready = false
			resp.Checks[c.name] = err.Error()
			s.logf("server: readiness check %q failed: %v", c.name, err)
		} else {
			resp.Checks[c.name] = "ok"
		}
	}
	if s.cluster != nil {
		resp.Shards = s.cluster.Statuses()
		ready, quorum, ok := s.cluster.Ready()
		resp.ShardQuorum = quorum
		for _, ss := range resp.Shards {
			if !ss.Ready {
				resp.Degraded = true
			}
		}
		if !ok {
			resp.Ready = false
			resp.Checks["shards"] = fmt.Sprintf("%d/%d shards ready, quorum is %d", ready, len(resp.Shards), quorum)
		} else {
			resp.Checks["shards"] = "ok"
		}
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleAdminReload triggers a zero-downtime data reload: the
// registered ReloadFunc rebuilds the corpus (running the ingestion
// pipeline when configured), a new generation is built off-line, and
// the server swaps to it atomically. The old generation finishes its
// in-flight requests and is then released. The handler try-acquires
// the admin mutation gate — a concurrent ingest, reload, or compaction
// answers 409 with Retry-After instead of queueing. POST only.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "reload requires POST")
		return
	}
	if s.reloader == nil {
		writeError(w, http.StatusNotImplemented, "%v", errReloadNotConfigured)
		return
	}
	if !s.tryLockAdmin() {
		writeAdminBusy(w)
		return
	}
	defer s.unlockAdmin()
	status, err := s.reloadLocked(r.Context())
	if err != nil {
		s.logf("server: reload failed: %v", err)
		writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}
