package shard

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ontoscore"
	"repro/internal/peer"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Federation: a cluster whose Config carries Peers serves some slots
// over the HTTP shard API (internal/peer) instead of in-process
// generations. The same three exactness pieces the in-process cluster
// relies on hold across the network:
//
//   - Peers hold disjoint document partitions under their original
//     Dewey identifiers, so merged results are byte-identical.
//   - The federated statistics exchange (exchangeStats) pulls every
//     peer's local ir.Stats over GET /shard/stats, merges them with
//     the local shards', and pushes the global snapshot back over
//     POST /shard/stats — at startup and on every reload.
//   - The coordinator resolves federation-wide per-keyword norms
//     (calibrator.resolve asks peers for their local maxima) and
//     ships the resolved values inside every search leg, so a peer
//     scores with the same divisors as everyone else.
//
// Availability follows the in-process model: a slow, broken, or
// partitioned peer is one failed leg — the answer degrades to partial
// with per-slot status, and the peer's breaker (shared between the
// client transport and the slot) sheds it until it recovers.

// statsExchangeTimeout bounds the startup/reload statistics exchange
// against an unresponsive peer; the exchange proceeds with whoever
// answered.
const statsExchangeTimeout = 30 * time.Second

// hasPeers reports whether any slot is remote.
func (c *Cluster) hasPeers() bool { return len(c.cfg.Peers) > 0 }

// Peers exposes the cluster's peer clients (metrics, shutdown).
func (c *Cluster) Peers() []*peer.Client { return c.cfg.Peers }

// fetchPeerStats pulls every peer's partition-local statistics for
// the exchange, caching the snapshot on the slot for statuses and
// gauges. A peer that does not answer contributes nothing — its
// breaker records the failure and the exchange proceeds.
func (c *Cluster) fetchPeerStats() []*peer.StatsWire {
	if !c.hasPeers() {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), statsExchangeTimeout)
	defer cancel()
	out := make([]*peer.StatsWire, 0, len(c.cfg.Peers))
	for _, sl := range c.slots {
		if sl.remote == nil {
			continue
		}
		sw, err := sl.remote.Stats(ctx)
		if err != nil {
			c.cfg.Logf("shard: peer %s stats fetch failed (exchange proceeds without it): %v",
				sl.remote.Name(), err)
			continue
		}
		sl.peerStats.Store(sw)
		out = append(out, sw)
	}
	return out
}

// pushPeerStats installs the cluster-merged global statistics on every
// peer — the second half of the distributed-IR exchange.
func (c *Cluster) pushPeerStats(merged map[string]peer.StrategyStatsWire) {
	if !c.hasPeers() || len(merged) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), statsExchangeTimeout)
	defer cancel()
	in := &peer.InstallWire{V: peer.APIVersion, Strategies: merged}
	for _, sl := range c.slots {
		if sl.remote == nil {
			continue
		}
		if _, err := sl.remote.InstallStats(ctx, in); err != nil {
			c.cfg.Logf("shard: peer %s stats install failed (peer scores with stale stats until the next exchange): %v",
				sl.remote.Name(), err)
		}
	}
}

// remoteKeywordMax asks one peer for its local raw-BM25 maximum for a
// keyword under the calibrator's strategy. ok is false when the peer
// did not answer — the caller then skips caching so the next query
// retries.
func (c *Cluster) remoteKeywordMax(ctx context.Context, sl *slot, keyword string, st ontoscore.Strategy) (float64, bool) {
	nctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	nw, err := sl.remote.KeywordNorms(nctx, keyword)
	if err != nil {
		c.cfg.Logf("shard: peer %s keyword-norm fetch for %q failed: %v", sl.remote.Name(), keyword, err)
		return 0, false
	}
	return nw.Norms[st.String()], true
}

// resolveAll resolves the federation-wide norm for every query keyword
// before the fan-out, priming the calibrator cache (so local legs
// never block a keyword build on the network) and returning the map a
// remote leg ships inside its search request.
func (cal *calibrator) resolveAll(ctx context.Context, keywords []query.Keyword) map[string]float64 {
	norms := make(map[string]float64, len(keywords))
	for _, kw := range keywords {
		norms[string(kw)] = cal.resolve(ctx, string(kw))
	}
	return norms
}

// noteRemoteOwners records which remote slot served each result's
// document, so later Snippet/Fragment hydration routes back to the
// owning peer.
func (c *Cluster) noteRemoteOwners(slotID int, results []core.Result) {
	if len(results) == 0 {
		return
	}
	c.remoteOwnMu.Lock()
	for _, r := range results {
		c.remoteOwn[r.Root.DocID()] = slotID
	}
	c.remoteOwnMu.Unlock()
}

// remoteOwnerOf answers the remote slot last seen serving a document
// (-1 when unknown).
func (c *Cluster) remoteOwnerOf(docID int32) int {
	c.remoteOwnMu.RLock()
	i, ok := c.remoteOwn[docID]
	c.remoteOwnMu.RUnlock()
	if !ok {
		return -1
	}
	return i
}

// purgeRemoteOwners drops the lazy owner records (reload: a peer may
// repartition).
func (c *Cluster) purgeRemoteOwners() {
	c.remoteOwnMu.Lock()
	c.remoteOwn = make(map[int32]int)
	c.remoteOwnMu.Unlock()
}

// queryRemote runs one scatter leg against a peer over the shard API:
// the client's breaker gates admission (an open breaker answers
// locally as state "open"), the per-shard budget travels as both the
// context and the X-Deadline header, and every transport failure —
// already recorded against the peer's breaker by the client — maps to
// the same status states the in-process legs use. Like queryShard it
// always answers on ch (buffered), so a straggler never blocks the
// gather.
func (s *Sharded) queryRemote(ctx context.Context, sl *slot, req core.SearchRequest, norms map[string]float64, ch chan<- answer) {
	start := time.Now()
	stat := core.ShardStatus{Shard: sl.id, Peer: sl.remote.Name()}
	defer func() {
		if s.c.metrics != nil {
			s.c.metrics.record(sl.id, stat.State, time.Since(start))
		}
	}()

	kws := make([]string, len(req.Keywords))
	for i, kw := range req.Keywords {
		kws[i] = string(kw)
	}
	wire := &peer.SearchRequestWire{
		V:        peer.APIVersion,
		Strategy: s.st.String(),
		Keywords: kws,
		K:        req.K,
		Offset:   req.Offset,
		Explain:  req.Explain,
		Norms:    norms,
	}
	sctx, cancel := context.WithTimeout(ctx, s.c.cfg.Timeout)
	defer cancel()
	sctx, sp := obs.StartSpan(sctx, "peer.search")
	sp.SetAttr("shard", sl.id)
	sp.SetAttr("peer", sl.remote.Name())
	defer sp.End()

	resp, err := sl.remote.Search(sctx, wire)
	stat.ElapsedUS = time.Since(start).Microseconds()
	if err != nil {
		switch {
		case errors.Is(err, peer.ErrBreakerOpen):
			stat.State = "open"
			stat.Error = "peer circuit breaker open"
		case errors.Is(err, context.DeadlineExceeded):
			stat.State = "timeout"
			stat.Error = err.Error()
		default:
			stat.State = "error"
			stat.Error = err.Error()
		}
		sp.SetAttr("error", stat.Error)
		ch <- answer{id: sl.id, stat: stat}
		return
	}

	out := &core.SearchResponse{}
	out.Info.Degraded = resp.Degraded
	if p := resp.Pruning; p != nil {
		out.Pruning = query.PruneStats{
			PostingsScored:  p.PostingsScored,
			BlocksSkipped:   p.BlocksSkipped,
			DocsSkipped:     p.DocsSkipped,
			EarlyTerminated: p.EarlyTerminated,
		}
	}
	for _, rw := range resp.Results {
		root, perr := xmltree.ParseDewey(rw.Root)
		if perr != nil {
			stat.State = "error"
			stat.Error = "peer answered an undecodable result root " + rw.Root
			sp.SetAttr("error", stat.Error)
			ch <- answer{id: sl.id, stat: stat}
			return
		}
		matches := make([]core.KeywordMatch, 0, len(rw.Matches))
		for _, m := range rw.Matches {
			id, perr := xmltree.ParseDewey(m.ID)
			if perr != nil {
				stat.State = "error"
				stat.Error = "peer answered an undecodable match id " + m.ID
				sp.SetAttr("error", stat.Error)
				ch <- answer{id: sl.id, stat: stat}
				return
			}
			matches = append(matches, core.KeywordMatch{Keyword: m.Keyword, ID: id, Score: m.Score, Path: m.Path})
		}
		out.Results = append(out.Results, core.RemoteResult(root, rw.Score, rw.Document, rw.Path, matches))
		if req.Explain {
			out.Snippets = append(out.Snippets, rw.Snippet)
		}
	}
	s.c.noteRemoteOwners(sl.id, out.Results)
	stat.State = "ok"
	stat.Generation = resp.Generation
	stat.Results = len(out.Results)
	sp.SetAttr("results", len(out.Results))
	ch <- answer{id: sl.id, stat: stat, resp: out}
}

// remoteHydrate asks the owning peer to rebuild a result's snippet
// and/or XML fragment. Failures hydrate to "" — the same silent
// degradation the local path shows for an unroutable document.
func (s *Sharded) remoteHydrate(sl *slot, r core.Result, snippet, fragment bool) peer.FragmentWire {
	req := peer.FragmentRequest{
		Root:     r.Root.String(),
		Strategy: s.st.String(),
		Snippet:  snippet,
		Fragment: fragment,
	}
	for _, m := range r.Matches {
		req.Matches = append(req.Matches, m.ID.String()+"|"+m.Keyword)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.c.cfg.Timeout)
	defer cancel()
	fw, err := sl.remote.Fragment(ctx, req)
	if err != nil {
		s.c.cfg.Logf("shard: peer %s hydration for %s failed: %v", sl.remote.Name(), req.Root, err)
		return peer.FragmentWire{}
	}
	return *fw
}
