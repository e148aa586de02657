package query

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/dil"
	"repro/internal/obs"
	"repro/internal/serving"
)

// ListSource supplies the prebuilt XOnto-DIL of a keyword, block-coded
// (nil if absent), which the DIL merge streams and skips through by
// block without decoding (merge.go). *dil.Index and *arena.Arena
// satisfy it; Engine optionally falls back to a builder for keywords
// (typically phrases) not in the prebuilt index.
type ListSource interface {
	Compact(keyword string) *dil.CompactList
}

// KeywordBuilder builds a keyword's XOnto-DIL on demand;
// *dil.Builder satisfies it. CompactKeyword returns the list
// block-coded, the form the engine caches and merges. The build reads
// a frozen ontology side and cannot fail; it receives the request
// context so that its spans (dil.build_keyword, dil.text_scores,
// ontoscore.propagate) attach to the request's trace.
type KeywordBuilder interface {
	CompactKeyword(ctx context.Context, keyword string) *dil.CompactList
}

// Params configure the query phase.
type Params struct {
	// Decay is the per-containment-edge attenuation of equation (2);
	// the paper uses 0.5.
	Decay float64
	// K is the default result-list length.
	K int
	// CacheSize bounds the on-demand keyword cache (entries); <= 0
	// uses DefaultKeywordCacheSize. The cache is a sharded LRU, so a
	// long-running server cannot grow without limit however many
	// distinct phrases it is asked for.
	CacheSize int
	// ExhaustiveMerge keeps the fast merge but disables block-max top-k
	// pruning: every aligned document is scored (xontoserve
	// -no-topk-prune), so a suspected pruning regression can be
	// bisected in production without giving up the merge.
	ExhaustiveMerge bool
}

// DefaultKeywordCacheSize is the on-demand keyword cache bound used
// when Params.CacheSize is unset.
const DefaultKeywordCacheSize = 4096

// DefaultParams returns decay 0.5, top-10, and the default keyword
// cache bound.
func DefaultParams() Params {
	return Params{Decay: 0.5, K: 10, CacheSize: DefaultKeywordCacheSize}
}

// Engine answers keyword queries against an XOnto-DIL index. It is
// safe for concurrent use: posting lists are resolved in parallel (one
// goroutine per keyword), on-demand builds are deduplicated across
// concurrent queries, and built lists land in a bounded LRU.
type Engine struct {
	params  Params
	source  ListSource
	builder KeywordBuilder

	cache   *serving.Cache[*dil.CompactList] // on-demand keywords, bounded LRU
	flights serving.Group[*dil.CompactList]  // dedup of concurrent builds

	overlay Overlay // live delta overlay (nil when not serving deltas)
}

// NewEngine returns an engine reading lists from source, consulting
// builder (may be nil) for keywords the source lacks.
func NewEngine(source ListSource, builder KeywordBuilder, params Params) *Engine {
	size := params.CacheSize
	if size <= 0 {
		size = DefaultKeywordCacheSize
	}
	return &Engine{
		params:  params,
		source:  source,
		builder: builder,
		cache:   serving.NewCache[*dil.CompactList](size, 0),
	}
}

// CacheMetrics reports the on-demand keyword cache counters.
func (e *Engine) CacheMetrics() serving.CacheMetrics { return e.cache.Metrics() }

// KeywordListBytes returns the encoded bytes of the lists the keyword
// cache holds, summed entry by entry.
func (e *Engine) KeywordListBytes() int64 {
	var n int64
	e.cache.Each(func(l *dil.CompactList) { n += int64(l.Bytes()) })
	return n
}

// SetSource replaces the engine's list source. The server uses it to
// repoint a system at a memory-mapped arena after construction; it
// must not be called while queries are in flight (generations install
// arenas before a generation starts serving).
func (e *Engine) SetSource(source ListSource) { e.source = source }

// resolved is one keyword's resolved posting list, block-coded: the
// source's (the prebuilt index, or a mapped arena whose postings
// stream zero-copy from its backing bytes) or a built one.
type resolved struct {
	list  *dil.CompactList
	delta bool // true when built pinned to a dirty delta overlay
}

// n returns the posting count.
func (r resolved) n() int { return r.list.Len() }

// list resolves one keyword's posting list, building and caching it on
// demand. Concurrent requests for the same missing keyword build once.
// The only possible error is the context's. Each resolution is recorded
// as a "query.keyword" span whose source attribute says how it was
// answered (index, cache, built).
func (e *Engine) list(ctx context.Context, kw string, ov OverlayView) (resolved, error) {
	ctx, sp := obs.StartSpan(ctx, "query.keyword")
	sp.SetAttr("keyword", kw)
	defer sp.End()
	r, err := e.listInner(ctx, sp, kw, ov)
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("postings", r.n())
	}
	return r, err
}

func (e *Engine) listInner(ctx context.Context, sp *obs.Span, kw string, ov OverlayView) (resolved, error) {
	if err := ctx.Err(); err != nil {
		return resolved{}, err
	}
	// A dirty delta overlay invalidates prebuilt base lists: their
	// baked-in scores predate the live collection statistics. Resolve
	// through the engine's builder pinned to the acquired state instead,
	// per read: one pass over the base and the delta, scored against
	// that state alone, so the list bypasses the keyword LRU, and its
	// flight key carries the state's version so concurrent reads of one
	// state still build once. (The OntoScores behind it do not depend on
	// the corpus; the ontology side memoizes them.)
	builder := e.builder
	var tag string
	if ov != nil && ov.Dirty() {
		tag = versionTag(ov.Version())
		sp.SetAttr("base_bypassed", true)
		builder = nil
		if b, ok := e.builder.(*dil.Builder); ok {
			builder = ov.Pin(b)
		}
	}
	if tag == "" {
		if c := e.source.Compact(kw); c != nil {
			sp.SetAttr("source", "index")
			return resolved{list: c}, nil
		}
	}
	if builder == nil {
		sp.SetAttr("source", "none")
		return resolved{}, nil
	}
	l, err := e.build(ctx, sp, kw, tag, builder)
	return resolved{list: l, delta: tag != ""}, err
}

// versionTag namespaces flight keys by delta-overlay state version.
// Lists built while a delta is live are only valid for the exact state
// they were scored against (collection statistics and normalization
// divisors move on every ingest), so they are built per read and never
// enter the keyword LRU; the tag only lets concurrent reads of one
// state share a build. A non-empty tag is what marks a dirty read.
func versionTag(v uint64) string {
	return "\x00v" + strconv.FormatUint(v, 36) + "\x1f"
}

// build is the on-demand path (b is the engine's own builder, or the
// one a dirty overlay pinned): the keyword LRU, then one build shared
// by concurrent requests, cached on a clean read. Its only error is the
// caller's context giving up; the build itself then completes in the
// background and still populates the cache. The sp parameter is the
// enclosing "query.keyword" span, tagged with how the keyword was
// answered (cache, built).
func (e *Engine) build(ctx context.Context, sp *obs.Span, kw, tag string, b KeywordBuilder) (*dil.CompactList, error) {
	ckey := tag + kw
	if l, ok := e.cached(tag, ckey); ok {
		sp.SetAttr("source", "cache")
		return l, nil
	}
	sp.SetAttr("source", "built")
	l, err, _ := e.flights.Do(ctx, ckey, func(fctx context.Context) (*dil.CompactList, error) {
		if l, ok := e.cached(tag, ckey); ok { // raced with another build
			return l, nil
		}
		l := b.CompactKeyword(fctx, kw)
		e.store(tag, ckey, l)
		return l, nil
	})
	return l, err
}

// cached looks a built list up in the keyword LRU. Lists built under a
// dirty overlay (a non-empty version tag) are never cached.
func (e *Engine) cached(tag, ckey string) (*dil.CompactList, bool) {
	if tag != "" {
		return nil, false
	}
	return e.cache.Get(ckey)
}

// store caches a built list unless it was built under a dirty overlay.
func (e *Engine) store(tag, ckey string, l *dil.CompactList) {
	if tag == "" {
		e.cache.Set(ckey, l)
	}
}

// resolve gathers every keyword's posting list, one goroutine per
// keyword for multi-keyword queries. It honors ctx: cancellation stops
// the wait and returns the context error (in-flight builds complete in
// the background and still populate the cache). The whole stage is one
// "query.resolve_keywords" span with a "query.keyword" child per
// keyword.
func (e *Engine) resolve(ctx context.Context, keywords []Keyword, ov OverlayView) ([]resolved, error) {
	ctx, sp := obs.StartSpan(ctx, "query.resolve_keywords")
	sp.SetAttr("keywords", len(keywords))
	defer sp.End()
	lists := make([]resolved, len(keywords))
	if len(keywords) == 1 {
		l, err := e.list(ctx, string(keywords[0]), ov)
		if err != nil {
			return nil, err
		}
		lists[0] = l
		return lists, nil
	}
	errs := make([]error, len(keywords))
	var wg sync.WaitGroup
	for i, kw := range keywords {
		wg.Add(1)
		go func(i int, kw string) {
			defer wg.Done()
			lists[i], errs[i] = e.list(ctx, kw, ov)
		}(i, string(kw))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lists, nil
}

// Info reports how a search was answered: the /search body's info
// object. The engine's lists are always ontology-aware; only a peer of
// an older release, whose keyword builds could fall back to IR-only
// scoring, answers with Degraded set (internal/shard).
type Info struct {
	// Degraded is true when part of the answer was scored IR-only
	// (NS(v,w) = IRS(v,w)).
	Degraded bool `json:"degraded"`
}

// Request is the unified query-phase request, mirrored by the system
// facade's SearchRequest. The zero value of each option is the
// default.
type Request struct {
	// Keywords is the parsed query.
	Keywords []Keyword
	// K bounds the result list (<= 0 uses the engine default; above
	// MaxK clamps).
	K int
	// Offset skips the first Offset ranked results before the K
	// returned ones — paging pushed down into the merge: the engine
	// keeps a K+Offset heap and prunes against its threshold, so no
	// caller ever truncates after the merge. Negative means 0; above
	// MaxOffset clamps.
	Offset int
}

// PruneStats reports the block-max top-k pruning work of one query's
// merge. Under sharded serving the per-shard stats are summed.
type PruneStats struct {
	// PostingsScored is how many postings the merge consumed.
	PostingsScored int64 `json:"postings_scored"`
	// BlocksSkipped is how many whole posting-list blocks seeks
	// bypassed without decoding (document zig-zag plus threshold
	// skips).
	BlocksSkipped int64 `json:"blocks_skipped"`
	// DocsSkipped is how many aligned documents the top-k threshold
	// pruned without scoring.
	DocsSkipped int64 `json:"docs_skipped"`
	// EarlyTerminated is true when the merge ended before the lists
	// drained because no remaining posting could reach the top k.
	EarlyTerminated bool `json:"early_terminated"`
}

// Merge folds another merge's stats in (shard fan-out aggregation).
func (p *PruneStats) Merge(o PruneStats) {
	p.PostingsScored += o.PostingsScored
	p.BlocksSkipped += o.BlocksSkipped
	p.DocsSkipped += o.DocsSkipped
	p.EarlyTerminated = p.EarlyTerminated || o.EarlyTerminated
}

// pruneStats converts one merge's counters to the response schema.
func pruneStats(c MergeCounters) PruneStats {
	return PruneStats{
		PostingsScored:  c.Postings,
		BlocksSkipped:   c.BlocksSkipped,
		DocsSkipped:     c.DocsSkipped,
		EarlyTerminated: c.EarlyTerminations > 0,
	}
}

// Response is what one engine query produces.
type Response struct {
	// Results are ranked by descending score; ties break by Dewey order
	// for determinism. The requested Offset is already applied.
	Results []Result
	// Pruning reports the merge's top-k pruning work.
	Pruning PruneStats
}

// Query is the single query-phase entry point. The only possible error is the
// context's. The whole run is a "query.search" span: keyword
// resolution (with per-keyword and build-stage children) followed by a
// "query.dil_merge" span for the DIL list merge.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	if len(req.Keywords) == 0 {
		return &Response{}, nil
	}
	k := clampWindowK(req.K, e.params.K)
	offset := ClampOffset(req.Offset)
	// The merge works toward the full offset+k prefix and resolves only
	// the results past the offset, so paging costs one deeper heap, not
	// a post-merge truncation.
	n := k + offset
	ctx, sp := obs.StartSpan(ctx, "query.search")
	sp.SetAttr("k", k)
	if offset > 0 {
		sp.SetAttr("offset", offset)
	}
	defer sp.End()

	var ov OverlayView
	if e.overlay != nil {
		ov = e.overlay.Acquire()
	}
	res, err := e.resolve(ctx, req.Keywords, ov)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	deltaMerged := false
	for _, r := range res {
		if r.n() == 0 {
			return resp, nil
		}
		deltaMerged = deltaMerged || r.delta
	}

	_, msp := obs.StartSpan(ctx, "query.dil_merge")
	if deltaMerged {
		msp.SetAttr("delta_merged", true)
	}
	msp.SetAttr("merge", map[bool]string{false: "topk", true: "fast-exhaustive"}[e.params.ExhaustiveMerge])
	var mc MergeCounters
	resp.Results, mc = runFast(res, e.params.Decay, n, offset, !e.params.ExhaustiveMerge)
	resp.Pruning = pruneStats(mc)
	msp.SetAttr("postings", resp.Pruning.PostingsScored)
	msp.SetAttr("blocks_skipped", resp.Pruning.BlocksSkipped)
	msp.SetAttr("docs_skipped", resp.Pruning.DocsSkipped)
	if resp.Pruning.EarlyTerminated {
		msp.SetAttr("early_terminated", true)
	}
	msp.SetAttr("results", len(resp.Results))
	msp.End()
	return resp, nil
}
