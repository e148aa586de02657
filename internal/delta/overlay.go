package delta

import (
	"repro/internal/dil"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// The exactness wiring. For live base+delta results to be
// byte-identical to a full rebuild, three global quantities must track
// the live corpus (base + delta − tombstones) rather than the frozen
// base snapshot:
//
//   - collection statistics (N, total length, DF) — the state's stats
//     view below, layered as base snapshot + adjustment;
//   - the per-keyword BM25 normalization divisor (Section III) — the
//     maximum raw score over the LIVE containing set of base and delta;
//   - the posting lists themselves — tombstoned postings dropped, the
//     delta's appended.
//
// All three are read from one state: the one a query acquired. A dirty
// read builds through the engine's own builder pinned to that state
// (dil.Builder.Pin), which computes the divisor once per keyword and
// assembles base and delta in one list. Nothing on that path reads the
// segment's current state, so a write landing mid-build cannot tear
// the list.

// stateStatsView pins one segment state's collection statistics.
type stateStatsView struct{ s *segState }

func (v stateStatsView) StatsN() int { return v.s.baseStats.N + v.s.adj.n }
func (v stateStatsView) StatsTotalLen() int64 {
	return v.s.baseStats.TotalLen + v.s.adj.totalLen
}
func (v stateStatsView) StatsDF(term string) int {
	return v.s.baseStats.DF[term] + v.s.adj.df[term]
}

// Overlay returns the query-engine overlay for one strategy and shard
// slot. shard < 0 (or an unsharded deployment) serves every delta
// posting; a shard slot serves only postings of documents it owns —
// tombstone suppression applies everywhere, since a shard's base lists
// only ever contain its own documents. norm returns the normalization
// authority of a shard slot, the full-corpus builder (under a disjoint
// partition its live maximum is the maximum over every slot's); nil
// when the engine's own builder indexes the whole base corpus.
func (s *Segment) Overlay(strategy ontoscore.Strategy, shard int, norm func() *dil.Builder) query.Overlay {
	return segOverlay{seg: s, strategy: strategy, shard: shard, norm: norm}
}

type segOverlay struct {
	seg      *Segment
	strategy ontoscore.Strategy
	shard    int
	norm     func() *dil.Builder
}

// Acquire snapshots the current state; every keyword of one query
// builds against the same snapshot.
func (o segOverlay) Acquire() query.OverlayView {
	return &segView{s: o.seg.state.Load(), o: o}
}

type segView struct {
	s *segState
	o segOverlay
}

func (v *segView) Version() uint64 { return v.s.version }

// Dirty reports whether this state diverges from the base snapshot at
// all: any live delta document or tombstone moves the collection
// statistics and normalization divisors, which invalidates every
// prebuilt base list's baked-in scores.
func (v *segView) Dirty() bool {
	return len(v.s.live) > 0 || len(v.s.dead) > 0
}

// Pin pins the engine's builder to the view's state.
func (v *segView) Pin(base *dil.Builder) *dil.Builder { return base.Pin(v.live()) }

// live is the view's state as a pinned build reads it.
func (v *segView) live() dil.Live {
	st := v.s
	live := dil.Live{Stats: stateStatsView{st}, Delta: st.builders[v.o.strategy]}
	if len(st.dead) > 0 {
		live.Dead = st.isDead
	}
	if shard := v.o.shard; shard >= 0 {
		live.Owns = func(id int32) bool {
			e, ok := st.byID[id]
			return ok && e.owner == shard
		}
	}
	if v.o.norm != nil {
		live.Norm = v.o.norm()
	}
	return live
}
