package server

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ontoscore"
	"repro/internal/peer"
)

// Federation wiring: a server can play either side of the HTTP shard
// transport. EnablePeerAPI makes this node a remote peer — it mounts
// the internal /shard/* API over the server's refcounted generations.
// EnableSharding with shard.Config.Peers makes this node a coordinator
// — its scatter-gather fans out over local slots and remote peers, and
// the per-peer transport counters land on /metrics here.

// genSource adapts the server's refcounted generations to the peer
// shard API's Source: every peer RPC pins the active generation for its
// duration, so a reload never swaps a corpus out from under a remote
// coordinator's scatter leg.
type genSource struct{ s *Server }

func (gs genSource) Acquire() (peer.Snapshot, error) {
	g := gs.s.gen.Pin()
	return peer.Snapshot{
		Systems:    systemsByName(g.systems),
		Generation: g.Num,
		Documents:  g.corpus.Len(),
		Release:    func() { gs.s.gen.Release(g) },
	}, nil
}

// systemsByName rekeys a generation's strategy map by display name (the
// shard wire protocol is string-keyed).
func systemsByName(systems map[ontoscore.Strategy]*core.System) map[string]*core.System {
	out := make(map[string]*core.System, len(systems))
	for st, sys := range systems {
		out[st.String()] = sys
	}
	return out
}

// EnablePeerAPI mounts the internal shard API (POST /shard/search,
// GET+POST /shard/stats, GET /shard/fragment) so this node can serve as
// a remote peer of a federated coordinator. The active generation's
// builders are wired for coordinator-pinned keyword norms, and every
// reload wires the next generation the same way before it serves — a
// local reload keeps scoring under the last installed cluster-global
// statistics until the coordinator pushes a fresh merge. Call once,
// before serving traffic; incompatible with live ingestion (the CLI
// rejects the combination — a delta segment would drift this peer's
// statistics away from the federation's agreed merge).
func (s *Server) EnablePeerAPI() *peer.Handler {
	h := peer.NewHandler(peer.HandlerConfig{
		Source: genSource{s},
		Logf:   func(format string, args ...any) { s.logf(format, args...) },
	})
	h.Register(s.mux)
	h.WireGeneration(systemsByName(s.gen.Load().systems))
	s.peerAPI = h
	return h
}

// PeerAPI returns the mounted shard-API handler, nil when this node is
// not serving as a peer.
func (s *Server) PeerAPI() *peer.Handler { return s.peerAPI }

// instrumentPeers registers the per-peer transport counters with the
// server registry: requests, failures, retries, and the hedging
// ledger (fired, won, wasted) plus the live p95-derived hedge delay,
// each labeled with the peer's name.
func (s *Server) instrumentPeers(peers []*peer.Client) {
	for _, pc := range peers {
		pc := pc
		label := obs.Label{Key: "peer", Value: pc.Name()}
		cf := func(name, help string, load func(peer.ClientMetrics) int64) {
			s.reg.CounterFunc(name, help,
				func() float64 { return float64(load(pc.Metrics())) }, label)
		}
		cf("xontorank_peer_requests_total", "Peer RPCs issued (retries and hedges included).",
			func(m peer.ClientMetrics) int64 { return m.Requests })
		cf("xontorank_peer_failures_total", "Peer RPCs that failed after retries.",
			func(m peer.ClientMetrics) int64 { return m.Failures })
		cf("xontorank_peer_retries_total", "Peer RPC retry attempts.",
			func(m peer.ClientMetrics) int64 { return m.Retries })
		cf("xontorank_peer_hedges_total", "Hedged peer searches fired after the p95-derived delay.",
			func(m peer.ClientMetrics) int64 { return m.Hedges })
		cf("xontorank_peer_hedges_won_total", "Hedged peer searches that answered before the primary.",
			func(m peer.ClientMetrics) int64 { return m.HedgesWon })
		cf("xontorank_peer_hedges_wasted_total", "Hedged peer searches the primary beat anyway.",
			func(m peer.ClientMetrics) int64 { return m.HedgesWasted })
		s.reg.GaugeFunc("xontorank_peer_hedge_delay_us",
			"Current hedge trigger delay in microseconds (p95-derived, 0 while cold).",
			func() float64 { return float64(pc.Metrics().HedgeDelayUS) }, label)
	}
}
