package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/serving"
)

// FPSearch fires once per shard leg at the top of every scatter; tests
// arm it (with After/Count/Prob) to make individual shards slow, fail,
// or panic.
const FPSearch = "shard.search"

// gatherGrace is how much longer than the per-shard budget the
// coordinator waits before declaring unanswered shards timed out. The
// per-shard context expires first; the grace only covers legs stuck in
// paths that cannot observe cancellation (e.g. an injected synchronous
// sleep), so the coordinator never blocks on them.
const gatherGrace = 50 * time.Millisecond

// Sharded is the scatter-gather facade for one strategy. It implements
// the same Query(ctx, SearchRequest) surface as *core.System, so the
// serving and server layers run unchanged on top of a cluster.
type Sharded struct {
	c  *Cluster
	st ontoscore.Strategy
}

// Strategy returns the facade's strategy.
func (s *Sharded) Strategy() ontoscore.Strategy { return s.st }

// answer is one shard leg's contribution to a gather.
type answer struct {
	id   int
	stat core.ShardStatus
	resp *core.SearchResponse
}

// Query fans the request out to every shard in parallel, waits up to
// the per-shard budget (plus a small grace), and merges the per-shard
// top-k into the global top-k with the loser-tree merge. Shards that
// are slow, failing, or breaker-open are skipped: the response carries
// the shards that answered, Partial set, and a per-shard status block.
// Only when no shard answers (or the caller's context dies) does Query
// return an error.
func (s *Sharded) Query(ctx context.Context, req core.SearchRequest) (*core.SearchResponse, error) {
	start := time.Now()
	if req.Strategy != "" {
		want, err := ontoscore.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		if want != s.st {
			return nil, fmt.Errorf("shard: cluster system is built for strategy %s, request asked for %s",
				s.st, want)
		}
	}

	var localRoot *obs.Span
	if req.Trace && obs.SpanFromContext(ctx) == nil {
		ctx, localRoot = obs.NewTracer(1).StartRoot(ctx, "shard.query")
	}

	// Parse once in the coordinator so every shard sees the same
	// keywords and the parse is not repeated N times.
	keywords := req.Keywords
	var parseDur time.Duration
	if len(keywords) == 0 && req.Query != "" {
		pstart := time.Now()
		keywords = query.ParseQuery(req.Query)
		parseDur = time.Since(pstart)
	}
	k := query.ClampK(req.K, s.c.cfg.Core.Query.K)
	offset := query.ClampOffset(req.Offset)
	// Every leg answers its local top-(k+offset) with Offset 0: shards
	// are disjoint document partitions, so the first k+offset entries of
	// the merged stream are exactly the global window, and the
	// coordinator pages once, here, after the merge.
	leg := core.SearchRequest{
		Keywords: keywords,
		K:        k + offset,
		Ranked:   req.Ranked,
		Explain:  req.Explain,
	}

	// With peers in the cluster, resolve every keyword's federation-wide
	// norm up front: local legs then hit the calibrator cache instead of
	// blocking a keyword build on the network, and remote legs ship the
	// resolved values so every node divides by the same maxima.
	var norms map[string]float64
	if s.c.hasPeers() {
		norms = s.c.calibs[s.st].resolveAll(ctx, keywords)
	}

	sstart := time.Now()
	n := len(s.c.slots)
	ch := make(chan answer, n) // buffered: stragglers must never leak
	for _, sl := range s.c.slots {
		if sl.remote != nil {
			go s.queryRemote(ctx, sl, leg, norms, ch)
			continue
		}
		go s.queryShard(ctx, sl, leg, ch)
	}

	statuses := make([]*core.ShardStatus, n)
	answers := make([]*core.SearchResponse, n)
	timer := time.NewTimer(s.c.cfg.Timeout + gatherGrace)
	defer timer.Stop()
	pending := n
gather:
	for pending > 0 {
		select {
		case a := <-ch:
			stat := a.stat
			statuses[a.id] = &stat
			answers[a.id] = a.resp
			pending--
		case <-timer.C:
			break gather
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	searchDur := time.Since(sstart)

	out := &core.SearchResponse{}
	answered := 0
	var firstErr string
	snippets := map[string]string{}
	var lists [][]core.Result
	var hydrateUS int64
	for i := range s.c.slots {
		if statuses[i] == nil {
			statuses[i] = &core.ShardStatus{
				Shard:     i,
				State:     "timeout",
				Error:     "shard did not answer within the gather budget",
				ElapsedUS: searchDur.Microseconds(),
			}
		}
		st := statuses[i]
		out.Shards = append(out.Shards, *st)
		if st.State != "ok" {
			if firstErr == "" {
				firstErr = fmt.Sprintf("shard %d: %s (%s)", i, st.State, st.Error)
			}
			continue
		}
		answered++
		resp := answers[i]
		out.Pruning.Merge(resp.Pruning)
		out.Info.Degraded = out.Info.Degraded || resp.Info.Degraded
		out.Info.DegradedKeywords = mergeKeywords(out.Info.DegradedKeywords, resp.Info.DegradedKeywords)
		if len(resp.Results) > 0 {
			lists = append(lists, resp.Results)
		}
		if req.Explain {
			for j, r := range resp.Results {
				if j < len(resp.Snippets) {
					snippets[r.Root.String()] = resp.Snippets[j]
				}
			}
		}
		if resp.Timing.HydrateUS > hydrateUS {
			hydrateUS = resp.Timing.HydrateUS
		}
	}
	if answered == 0 {
		localRoot.End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("shard: no shards answered: %s", firstErr)
	}
	out.Partial = answered < n
	if out.Partial && s.c.metrics != nil {
		s.c.metrics.partial.Inc()
	}

	// Shards are disjoint document partitions and each returned its
	// full top-(k+offset) under the engine's total order, so the merged
	// prefix is exactly the single-node window; paging happens here,
	// once, and nowhere downstream.
	merged := query.MergeSortedFunc(lists, func(a, b core.Result) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Root.Compare(b.Root) < 0
	}, k+offset)
	if offset >= len(merged) {
		merged = nil
	} else {
		merged = merged[offset:]
	}
	out.Results = merged
	if req.Explain {
		out.Snippets = make([]string, len(out.Results))
		for i, r := range out.Results {
			out.Snippets[i] = snippets[r.Root.String()]
		}
	}

	out.TraceID = obs.TraceID(ctx)
	if req.Trace {
		root := obs.SpanFromContext(ctx).Root()
		if localRoot != nil {
			localRoot.End()
			root = localRoot
		}
		if root != nil {
			t := root.Tree()
			out.Trace = &t
		}
	}
	total := time.Since(start).Microseconds()
	if total < 1 {
		total = 1
	}
	out.Timing = core.Timing{
		ParseUS:   parseDur.Microseconds(),
		SearchUS:  searchDur.Microseconds(),
		HydrateUS: hydrateUS,
		TotalUS:   total,
	}
	return out, nil
}

// queryShard runs one scatter leg: breaker admission, generation pin,
// per-shard deadline, the failpoint, and the shard-local query, always
// answering on ch (buffered) so a straggler never blocks anyone.
func (s *Sharded) queryShard(ctx context.Context, sl *slot, req core.SearchRequest, ch chan<- answer) {
	start := time.Now()
	stat := core.ShardStatus{Shard: sl.id}
	defer func() {
		if s.c.metrics != nil {
			s.c.metrics.record(sl.id, stat.State, time.Since(start))
		}
	}()
	if !sl.breaker.Allow() {
		stat.State = "open"
		stat.Error = "shard circuit breaker open"
		ch <- answer{id: sl.id, stat: stat}
		return
	}
	g := sl.gen.Pin()
	defer sl.gen.Release(g)
	stat.Generation = g.Num
	sctx, cancel := context.WithTimeout(ctx, s.c.cfg.Timeout)
	defer cancel()
	sctx, sp := obs.StartSpan(sctx, "shard.search")
	sp.SetAttr("shard", sl.id)
	defer sp.End()

	var resp *core.SearchResponse
	err := faultinject.Hit(FPSearch)
	if err == nil {
		resp, err = g.systems[s.st].Query(sctx, req)
	}
	// An injected synchronous sleep returns nil after the budget has
	// long expired; surface it as the timeout it effectively was.
	if err == nil && sctx.Err() != nil {
		err = sctx.Err()
	}
	stat.ElapsedUS = time.Since(start).Microseconds()
	if err != nil {
		sl.breaker.Failure()
		stat.State = "error"
		if errors.Is(err, context.DeadlineExceeded) {
			stat.State = "timeout"
		}
		stat.Error = err.Error()
		sp.SetAttr("error", err.Error())
		ch <- answer{id: sl.id, stat: stat}
		return
	}
	sl.breaker.Success()
	stat.State = "ok"
	stat.Results = len(resp.Results)
	sp.SetAttr("results", len(resp.Results))
	ch <- answer{id: sl.id, stat: stat, resp: resp}
}

// mergeKeywords unions degraded-keyword lists preserving first-seen
// order.
func mergeKeywords(acc, more []string) []string {
	for _, kw := range more {
		seen := false
		for _, have := range acc {
			if have == kw {
				seen = true
				break
			}
		}
		if !seen {
			acc = append(acc, kw)
		}
	}
	return acc
}

// Snippet routes to the shard — or peer — owning the result's
// document.
func (s *Sharded) Snippet(r core.Result) string {
	sl := s.slotFor(r.Root.DocID())
	if sl == nil {
		return ""
	}
	if sl.remote != nil {
		return s.remoteHydrate(sl, r, true, false).Snippet
	}
	g := sl.gen.Pin()
	defer sl.gen.Release(g)
	return g.systems[s.st].Snippet(r)
}

// Fragment routes to the shard — or peer — owning the result's
// document.
func (s *Sharded) Fragment(r core.Result) string {
	sl := s.slotFor(r.Root.DocID())
	if sl == nil {
		return ""
	}
	if sl.remote != nil {
		return s.remoteHydrate(sl, r, false, true).Fragment
	}
	g := sl.gen.Pin()
	defer sl.gen.Release(g)
	return g.systems[s.st].Fragment(r)
}

func (s *Sharded) slotFor(docID int32) *slot {
	if i := s.c.ownerOf(docID); i >= 0 {
		return s.c.slots[i]
	}
	// Documents a peer answered with route back to that peer.
	if i := s.c.remoteOwnerOf(docID); i >= 0 && i < len(s.c.slots) {
		return s.c.slots[i]
	}
	// Delta documents are in no base partition; the segment records the
	// slot that owns them.
	if d := s.c.delta; d != nil {
		if i := d.OwnerOf(docID); i >= 0 && i < len(s.c.slots) {
			return s.c.slots[i]
		}
	}
	// Transient miss across a partial reload: fall back to scanning the
	// live local generations.
	live := s.c.pinLocal()
	defer s.c.unpinLocal(live)
	for i, g := range live {
		if g.corpus.Doc(docID) != nil {
			return s.c.slots[i]
		}
	}
	return nil
}

// Builder exposes a representative index-creation module (shard 0's):
// ontology-side computations (OntoScore explanations) are
// corpus-independent, so any shard's builder answers them identically.
func (s *Sharded) Builder() *dil.Builder {
	sl := s.c.slots[0]
	g := sl.gen.Pin()
	defer sl.gen.Release(g)
	return g.systems[s.st].Builder()
}

// KeywordCacheMetrics aggregates the per-shard on-demand keyword cache
// counters of the local shards (peers report their own).
func (s *Sharded) KeywordCacheMetrics() serving.CacheMetrics {
	var out serving.CacheMetrics
	live := s.c.pinLocal()
	defer s.c.unpinLocal(live)
	for _, g := range live {
		m := g.systems[s.st].KeywordCacheMetrics()
		out.Hits += m.Hits
		out.Misses += m.Misses
		out.Evictions += m.Evictions
		out.Expired += m.Expired
		out.Entries += m.Entries
		out.Capacity += m.Capacity
	}
	return out
}
