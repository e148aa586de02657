package peer

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Snapshot is one pinned serving view of a peer's partition: the
// per-strategy systems (keyed by strategy display name) and the
// generation they belong to. Release must be called when the request
// is done with it.
type Snapshot struct {
	Systems    map[string]*core.System
	Generation uint64
	Documents  int
	Release    func()
}

// Source yields pinned serving snapshots. The server implements it
// over its refcounted generations; tests implement it over a fixed map.
type Source interface {
	Acquire() (Snapshot, error)
}

type fixedSource struct {
	systems map[string]*core.System
	gen     uint64
}

func (s fixedSource) Acquire() (Snapshot, error) {
	docs := 0
	for _, sys := range s.systems {
		docs = sys.Corpus().Len()
		break
	}
	return Snapshot{Systems: s.systems, Generation: s.gen, Documents: docs, Release: func() {}}, nil
}

// FixedSource wraps an immutable strategy→system map as a Source (test
// and loopback-harness use).
func FixedSource(systems map[string]*core.System, gen uint64) Source {
	return fixedSource{systems: systems, gen: gen}
}

// HandlerConfig tunes a Handler; zero-valued caps take the package
// defaults.
type HandlerConfig struct {
	Source        Source
	MaxSearchBody int64
	MaxStatsBody  int64
	Logf          func(format string, args ...any)
}

// Handler serves the peer side of the shard API. Searches run under a
// read lock; a stats install takes the write lock, so the global-
// statistics swap is never interleaved with a scoring pass.
type Handler struct {
	src       Source
	maxSearch int64
	maxStats  int64
	logf      func(format string, args ...any)

	// mu separates serving (read side: search, stats, fragment) from a
	// global-statistics install (write side), which swaps off-line-only
	// builder state.
	mu sync.RWMutex

	// tabMu guards the norm-table registry and lastInstall; it nests
	// inside mu (either side) and is never held across a query.
	tabMu  sync.Mutex
	tables map[string]*normTable

	// lastInstall is replayed onto each new generation's builders
	// (WireGeneration): a peer reload must not silently fall back to
	// partition-local statistics while the coordinator still scores the
	// cluster under the previous merge.
	lastInstall *InstallWire
}

// NewHandler builds the shard-API handler over a snapshot source.
func NewHandler(cfg HandlerConfig) *Handler {
	h := &Handler{
		src:       cfg.Source,
		maxSearch: cfg.MaxSearchBody,
		maxStats:  cfg.MaxStatsBody,
		logf:      cfg.Logf,
		tables:    make(map[string]*normTable),
	}
	if h.maxSearch <= 0 {
		h.maxSearch = DefaultMaxSearchBody
	}
	if h.maxStats <= 0 {
		h.maxStats = DefaultMaxStatsBody
	}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	return h
}

// Register mounts the shard API on mux.
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc(PathSearch, h.handleSearch)
	mux.HandleFunc(PathStats, h.handleStats)
	mux.HandleFunc(PathFragment, h.handleFragment)
}

// WireGeneration prepares a not-yet-serving generation's systems for
// federated scoring: each builder gets this handler's pinned-norm
// calibrator, and the last installed global statistics are re-applied
// so a local reload keeps scoring under the cluster-wide merge until
// the coordinator pushes a fresh one.
func (h *Handler) WireGeneration(systems map[string]*core.System) {
	h.tabMu.Lock()
	defer h.tabMu.Unlock()
	for name, sys := range systems {
		sys.Builder().SetCalibrator(h.tableLocked(name))
		if h.lastInstall != nil {
			if sw, ok := h.lastInstall.Strategies[name]; ok {
				sys.Builder().SetGlobalTextStats(sw.overlay())
			}
		}
	}
}

// overlay is the statistics overlay an installed body names for one
// strategy: none when its N is 0, so an install that counts no
// documents leaves the builder scoring on its own statistics.
func (sw StrategyStatsWire) overlay() ir.StatsView {
	if sw.N == 0 {
		return nil
	}
	return ir.Stats{N: sw.N, TotalLen: sw.TotalLen, DF: sw.DF}
}

// tableLocked requires h.tabMu.
func (h *Handler) tableLocked(strategy string) *normTable {
	t, ok := h.tables[strategy]
	if !ok {
		t = &normTable{norms: make(map[string]float64)}
		h.tables[strategy] = t
	}
	return t
}

func (h *Handler) table(strategy string) *normTable {
	h.tabMu.Lock()
	defer h.tabMu.Unlock()
	return h.tableLocked(strategy)
}

// normTable pins coordinator-resolved cluster-global keyword norms and
// answers them as the builder's Calibrator. Unpinned keywords return 0
// (partition-local fallback) — the coordinator pins every keyword it
// queries, so that path only serves the peer's own direct traffic.
type normTable struct {
	mu    sync.RWMutex
	norms map[string]float64
}

// KeywordNorm implements dil.Calibrator.
func (t *normTable) KeywordNorm(keyword string) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.norms[keyword]
}

// pin records the coordinator's norms, reporting whether any keyword's
// effective norm changed — including a first pin, since the engine may
// already have cached that keyword's list under the local fallback.
func (t *normTable) pin(norms map[string]float64) bool {
	if len(norms) == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := false
	for kw, v := range norms {
		if have, ok := t.norms[kw]; !ok || have != v {
			t.norms[kw] = v
			changed = true
		}
	}
	return changed
}

// reset drops every pinned norm (a fresh stats install supersedes them).
func (t *normTable) reset() {
	t.mu.Lock()
	t.norms = make(map[string]float64)
	t.mu.Unlock()
}

// requestContext narrows ctx to the coordinator's X-Deadline when that
// is earlier than what the connection already carries.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	hdrDeadline, ok := ParseDeadlineHeader(r.Header)
	if !ok {
		return ctx, func() {}
	}
	if cur, has := ctx.Deadline(); has && !hdrDeadline.Before(cur) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, hdrDeadline)
}

// readBody drains a size-capped request body, mapping the over-limit
// case to 413 (the JSON error body is written here).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeWireError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
		} else {
			writeWireError(w, http.StatusBadRequest, "read request body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeWireError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	body, ok := readBody(w, r, h.maxSearch)
	if !ok {
		return
	}
	var req SearchRequestWire
	if err := json.Unmarshal(body, &req); err != nil {
		writeWireError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if req.V > APIVersion {
		writeWireError(w, http.StatusBadRequest, "unsupported shard API version")
		return
	}
	if len(req.Keywords) == 0 {
		writeWireError(w, http.StatusBadRequest, "empty keyword list")
		return
	}
	if req.K < 0 {
		writeWireError(w, http.StatusBadRequest, "k must not be negative")
		return
	}
	if req.Offset < 0 {
		writeWireError(w, http.StatusBadRequest, "offset must not be negative")
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()

	h.mu.RLock()
	defer h.mu.RUnlock()
	snap, err := h.src.Acquire()
	if err != nil {
		writeWireError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer snap.Release()
	sys, ok := snap.Systems[req.Strategy]
	if !ok {
		writeWireError(w, http.StatusBadRequest, "unknown strategy "+req.Strategy)
		return
	}

	// Pin the coordinator-resolved global norms before scoring; a norm
	// that moved (reload elsewhere in the federation) invalidates
	// locally cached lists, whose scores baked in the old divisor.
	if h.table(req.Strategy).pin(req.Norms) {
		sys.PurgeKeywordCache()
	}

	keywords := make([]query.Keyword, len(req.Keywords))
	for i, kw := range req.Keywords {
		keywords[i] = query.Keyword(kw)
	}
	out, err := sys.Query(ctx, core.SearchRequest{
		Keywords: keywords,
		K:        req.K,
		Offset:   req.Offset,
		Explain:  req.Explain,
	})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			status = 499 // client closed request
		}
		writeWireError(w, status, err.Error())
		return
	}

	resp := SearchResponseWire{
		V:          APIVersion,
		Results:    make([]ResultWire, 0, len(out.Results)),
		Generation: snap.Generation,
		ElapsedUS:  time.Since(start).Microseconds(),
	}
	if p := out.Pruning; p != (query.PruneStats{}) {
		resp.Pruning = &PruningWire{
			PostingsScored:  p.PostingsScored,
			BlocksSkipped:   p.BlocksSkipped,
			DocsSkipped:     p.DocsSkipped,
			EarlyTerminated: p.EarlyTerminated,
		}
	}
	for i, res := range out.Results {
		rw := ResultWire{
			Root:     res.Root.String(),
			Score:    res.Score,
			Document: res.Document,
			Path:     res.Path,
		}
		for _, m := range res.Matches {
			rw.Matches = append(rw.Matches, MatchWire{
				Keyword: m.Keyword,
				ID:      m.ID.String(),
				Path:    m.Path,
				Score:   m.Score,
			})
		}
		if req.Explain && i < len(out.Snippets) {
			rw.Snippet = out.Snippets[i]
		}
		resp.Results = append(resp.Results, rw)
	}
	writeShaped(w, r, http.StatusOK, resp)
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		h.handleStatsGet(w, r)
	case http.MethodPost:
		h.handleStatsInstall(w, r)
	default:
		writeWireError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (h *Handler) handleStatsGet(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	snap, err := h.src.Acquire()
	if err != nil {
		writeWireError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer snap.Release()

	if kw := strings.TrimSpace(r.URL.Query().Get("keyword")); kw != "" {
		resp := NormsWire{V: APIVersion, Keyword: kw, Norms: make(map[string]float64, len(snap.Systems))}
		for name, sys := range snap.Systems {
			resp.Norms[name] = sys.Builder().RawTextMax(kw)
		}
		writeShaped(w, r, http.StatusOK, resp)
		return
	}

	resp := StatsWire{
		V:          APIVersion,
		Documents:  snap.Documents,
		Generation: snap.Generation,
		Strategies: make(map[string]StrategyStatsWire, len(snap.Systems)),
	}
	for name, sys := range snap.Systems {
		st := sys.Builder().LocalTextStats()
		resp.Strategies[name] = StrategyStatsWire{N: st.N, TotalLen: st.TotalLen, DF: st.DF}
	}
	writeShaped(w, r, http.StatusOK, resp)
}

func (h *Handler) handleStatsInstall(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, h.maxStats)
	if !ok {
		return
	}
	var in InstallWire
	if err := json.Unmarshal(body, &in); err != nil {
		writeWireError(w, http.StatusBadRequest, "decode install: "+err.Error())
		return
	}
	if in.V > APIVersion {
		writeWireError(w, http.StatusBadRequest, "unsupported shard API version")
		return
	}

	// The write lock drains in-flight searches before the swap: global
	// statistics are off-line-only state on the builders.
	h.mu.Lock()
	defer h.mu.Unlock()
	snap, err := h.src.Acquire()
	if err != nil {
		writeWireError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer snap.Release()

	installed := 0
	for name, sys := range snap.Systems {
		sw, ok := in.Strategies[name]
		if !ok {
			continue
		}
		b := sys.Builder()
		b.SetGlobalTextStats(sw.overlay())
		sys.PurgeKeywordCache()
		h.table(name).reset()
		installed++
	}
	h.tabMu.Lock()
	h.lastInstall = &in
	h.tabMu.Unlock()
	h.logf("peer: installed global statistics for %d strategies (generation %d)", installed, snap.Generation)
	writeShaped(w, r, http.StatusOK, InstallAckWire{V: APIVersion, Generation: snap.Generation, Installed: installed})
}

func (h *Handler) handleFragment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeWireError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	root, err := xmltree.ParseDewey(q.Get("id"))
	if err != nil {
		writeWireError(w, http.StatusBadRequest, "bad id: "+err.Error())
		return
	}

	h.mu.RLock()
	defer h.mu.RUnlock()
	snap, aerr := h.src.Acquire()
	if aerr != nil {
		writeWireError(w, http.StatusServiceUnavailable, aerr.Error())
		return
	}
	defer snap.Release()

	// Snippets and fragments are corpus lookups — strategy-independent;
	// honor an explicit strategy, otherwise any system answers.
	var sys *core.System
	if st := q.Get("strategy"); st != "" {
		if sys = snap.Systems[st]; sys == nil {
			writeWireError(w, http.StatusBadRequest, "unknown strategy "+st)
			return
		}
	} else {
		for _, s := range snap.Systems {
			sys = s
			break
		}
	}
	if sys == nil {
		writeWireError(w, http.StatusServiceUnavailable, "no serving systems")
		return
	}

	resp := FragmentWire{V: APIVersion, Found: sys.NodeAt(root) != nil}
	if resp.Found {
		if q.Get("snippet") == "1" {
			var matches []core.KeywordMatch
			for _, m := range q["m"] {
				id, kw, ok := strings.Cut(m, "|")
				if !ok {
					continue
				}
				d, derr := xmltree.ParseDewey(id)
				if derr != nil {
					continue
				}
				matches = append(matches, core.KeywordMatch{Keyword: kw, ID: d})
			}
			resp.Snippet = sys.SnippetAt(root, matches)
		}
		if q.Get("fragment") == "1" {
			resp.Fragment = xmltree.XMLString(sys.NodeAt(root))
		}
	}
	writeShaped(w, r, http.StatusOK, resp)
}
