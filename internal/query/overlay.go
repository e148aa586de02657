package query

import "repro/internal/dil"

// OverlayView is one consistent snapshot of a live delta overlay (see
// internal/delta): the mutable delta segment that absorbs single
// document adds, replacements, and deletions between generation
// rebuilds. The engine acquires one view per query, so every keyword
// of that query merges against the same delta state even while
// ingests land concurrently.
type OverlayView interface {
	// Version is the monotonic state version of the overlay; the
	// serving layer folds it into result-cache epochs so cached
	// responses from before an ingest can never be replayed after it.
	Version() uint64

	// Dirty reports whether the delta diverges from the base snapshot
	// at all. A dirty overlay invalidates every prebuilt base list —
	// collection statistics and normalization divisors moved, so the
	// baked-in scores are stale — and the engine resolves keywords
	// through the builder Pin returns instead. A clean overlay (right
	// after a compaction) restores the prebuilt fast path untouched.
	Dirty() bool

	// Pin returns base — the engine's own builder — pinned to this
	// view's state: statistics, normalization divisors and tombstones
	// all read from the state the view acquired, whatever lands after,
	// and each keyword build yields the whole live list, base and delta
	// postings in Dewey order.
	Pin(base *dil.Builder) *dil.Builder
}

// Overlay hands out consistent views of a live delta segment.
// *delta.Segment provides implementations via its Overlay method.
type Overlay interface {
	Acquire() OverlayView
}

// SetOverlay installs the live delta overlay. Like the builder and
// source it is fixed at setup time: call it while the engine is
// off-line (before it serves queries). Pass nil to remove.
func (e *Engine) SetOverlay(o Overlay) { e.overlay = o }

// PurgeKeywordCache empties the on-demand keyword cache. The serving
// layer calls it after every applied ingest: cached lists were scored
// under the clean base statistics and normalization divisors, and both
// move when a document is added or tombstoned (reads under the dirty
// overlay build per read and cache nothing).
func (e *Engine) PurgeKeywordCache() { e.cache.Purge() }
