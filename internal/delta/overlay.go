package delta

import (
	"context"

	"repro/internal/dil"
	"repro/internal/ir"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// The exactness wiring. For live base+delta results to be
// byte-identical to a full rebuild, three global quantities must track
// the live corpus (base + delta − tombstones) rather than the frozen
// base snapshot:
//
//   - collection statistics (N, total length, DF) — served by the
//     stats views below, layered as base snapshot + adjustment;
//   - the per-keyword BM25 normalization divisor (Section III) —
//     served by the calibrator, an authoritative max over the LIVE
//     containing set of base and delta builders;
//   - the posting lists themselves — served by the query-engine
//     overlay, which drops tombstoned postings and merges the delta's.

// stateStatsView pins one segment state: installed on that state's own
// delta builders, so their scores are internally consistent with the
// snapshot a query acquired.
type stateStatsView struct{ s *segState }

func (v stateStatsView) StatsN() int { return v.s.baseStats.N + v.s.adj.n }
func (v stateStatsView) StatsTotalLen() int64 {
	return v.s.baseStats.TotalLen + v.s.adj.totalLen
}
func (v stateStatsView) StatsDF(term string) int {
	return v.s.baseStats.DF[term] + v.s.adj.df[term]
}

// liveStatsView follows the segment's current state: installed once on
// the base generation's builders, it makes their BM25 track every
// ingest without touching the builders again.
type liveStatsView struct{ seg *Segment }

func (v liveStatsView) StatsN() int {
	s := v.seg.state.Load()
	return s.baseStats.N + s.adj.n
}
func (v liveStatsView) StatsTotalLen() int64 {
	s := v.seg.state.Load()
	return s.baseStats.TotalLen + s.adj.totalLen
}
func (v liveStatsView) StatsDF(term string) int {
	s := v.seg.state.Load()
	return s.baseStats.DF[term] + s.adj.df[term]
}

// StatsView returns the live statistics view to install on base
// builders (SetGlobalTextStatsView).
func (s *Segment) StatsView() ir.StatsView { return liveStatsView{s} }

// Calibrator returns the keyword-norm calibrator for base builders of
// one strategy: the maximum raw BM25 over the live containing set,
// spanning the full base corpus (minus tombstones) and the live delta.
// The base builder is read through a provider so generation swaps
// don't strand the calibrator on a dropped builder.
func (s *Segment) Calibrator(strategy ontoscore.Strategy, base func() *dil.Builder) dil.Calibrator {
	return liveCalibrator{seg: s, strategy: strategy, base: base}
}

type liveCalibrator struct {
	seg      *Segment
	strategy ontoscore.Strategy
	base     func() *dil.Builder
}

func (c liveCalibrator) KeywordNorm(keyword string) float64 {
	st := c.seg.state.Load()
	return keywordNorm(st, c.strategy, keyword, c.base())
}

// stateCalibrator is the pinned variant installed on a state's own
// delta builders.
type stateCalibrator struct {
	s        *segState
	strategy ontoscore.Strategy
	base     func() *dil.Builder
}

func (c stateCalibrator) KeywordNorm(keyword string) float64 {
	return keywordNorm(c.s, c.strategy, keyword, c.base())
}

func keywordNorm(st *segState, strategy ontoscore.Strategy, keyword string, base *dil.Builder) float64 {
	max := 0.0
	if base != nil {
		max = base.RawTextMaxLive(keyword, st.isDead)
	}
	if db := st.builders[strategy]; db != nil {
		if m := db.RawTextMaxLive(keyword, st.isDead); m > max {
			max = m
		}
	}
	return max
}

// InstallBase wires a base builder of one strategy to this segment:
// the live statistics view and the live calibrator. Call while the
// builder is off-line (generation construction, before swap).
func (s *Segment) InstallBase(strategy ontoscore.Strategy, base func() *dil.Builder) {
	b := base()
	if b == nil {
		return
	}
	b.SetGlobalTextStatsView(s.StatsView())
	b.SetCalibrator(s.Calibrator(strategy, base))
}

// SetBaseProvider completes the delta builders' calibration: their
// normalization divisor must span the base corpus too. Called by the
// serving layer with a provider returning the full-corpus builder of
// each strategy, at wiring time (before traffic) — subsequent rebuilds
// pick it up under the apply lock.
func (s *Segment) SetBaseProvider(base func(strategy ontoscore.Strategy) *dil.Builder) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.baseProvider = base
	for strat, b := range s.state.Load().builders {
		strat := strat
		b.SetCalibrator(stateCalibrator{s: s.state.Load(), strategy: strat, base: func() *dil.Builder { return base(strat) }})
	}
}

// Overlay returns the query-engine overlay for one strategy and shard
// slot. shard < 0 (or an unsharded deployment) serves every delta
// posting; a shard slot serves only postings of documents it owns —
// tombstone suppression applies everywhere, since a shard's base lists
// only ever contain its own documents.
func (s *Segment) Overlay(strategy ontoscore.Strategy, shard int) query.Overlay {
	return segOverlay{seg: s, strategy: strategy, shard: shard}
}

type segOverlay struct {
	seg      *Segment
	strategy ontoscore.Strategy
	shard    int
}

// Acquire snapshots the current state; every keyword of one query
// merges against the same snapshot.
func (o segOverlay) Acquire() query.OverlayView {
	return &segView{s: o.seg.state.Load(), strategy: o.strategy, shard: o.shard}
}

type segView struct {
	s        *segState
	strategy ontoscore.Strategy
	shard    int
}

func (v *segView) Version() uint64 { return v.s.version }

// Dirty reports whether this state diverges from the base snapshot at
// all: any live delta document or tombstone moves the collection
// statistics and normalization divisors, which invalidates every
// prebuilt base list's baked-in scores.
func (v *segView) Dirty() bool {
	return len(v.s.live) > 0 || len(v.s.dead) > 0
}

// Combine merges the delta's postings for keyword into base, dropping
// tombstoned base postings in the same pass: one allocation, of exactly
// the combined length. changed is false (and base is returned as is)
// when the state neither suppresses a base posting nor adds one.
func (v *segView) Combine(ctx context.Context, keyword string, base dil.List, irOnly bool) (dil.List, bool, error) {
	st := v.s
	// Build the delta's postings for the keyword under the same NS
	// function the base list used.
	var deltaList dil.List
	if b := st.builders[v.strategy]; b != nil {
		if irOnly {
			deltaList = b.BuildKeywordIRCtx(ctx, keyword)
		} else {
			var err error
			deltaList, err = b.BuildKeywordECtx(ctx, keyword)
			if err != nil {
				return nil, false, err
			}
		}
		// Suppress superseded delta versions and, on a shard slot,
		// postings owned elsewhere (the builder's list is ours to filter
		// in place).
		kept := deltaList[:0]
		for _, p := range deltaList {
			id := p.ID.DocID()
			if st.dead[id] {
				continue
			}
			if v.shard >= 0 {
				if e, ok := st.byID[id]; !ok || e.owner != v.shard {
					continue
				}
			}
			kept = append(kept, p)
		}
		deltaList = kept
	}
	// Count the live base postings. Postings run in document order, so
	// the tombstone set is asked once per document, not per posting.
	live := len(base)
	if len(st.dead) > 0 {
		live = 0
		dead := baseFilter{doc: -1}
		for _, p := range base {
			if !dead.is(st, p.ID.DocID()) {
				live++
			}
		}
	}
	if live == len(base) && len(deltaList) == 0 {
		return base, false, nil
	}
	out := make(dil.List, 0, live+len(deltaList))
	dead := baseFilter{doc: -1}
	j := 0
	for _, p := range base {
		if live < len(base) && dead.is(st, p.ID.DocID()) {
			continue
		}
		// Base and delta documents are disjoint, so no key is in both.
		for j < len(deltaList) && deltaList[j].ID.Compare(p.ID) < 0 {
			out = append(out, deltaList[j])
			j++
		}
		out = append(out, p)
	}
	return append(out, deltaList[j:]...), true, nil
}

// baseFilter answers "is this document tombstoned?" over a run of
// document-ordered postings, looking each document up once. Start it
// at doc -1, which no document has.
type baseFilter struct {
	doc  int32
	dead bool
}

func (f *baseFilter) is(st *segState, doc int32) bool {
	if doc != f.doc {
		f.doc, f.dead = doc, st.dead[doc]
	}
	return f.dead
}
