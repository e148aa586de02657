package query

import (
	"context"

	"repro/internal/dil"
)

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
	// through the builder instead (whose statistics views track the
	// live state). A clean overlay (right after a compaction) restores
	// the prebuilt fast path untouched.
	Dirty() bool

	// Combine merges the live delta into one keyword's base posting
	// list: tombstoned documents' postings are dropped and the delta
	// documents' postings are merged in Dewey order. irOnly selects the
	// delta's IR-only build so a degraded keyword stays degraded across
	// base and delta alike. The changed return is false when the base
	// list is already exact (no tombstones touch it and the delta has
	// no postings for the keyword), letting the caller keep the
	// compact form. An error means the delta's ontology path failed;
	// the engine then degrades the whole keyword to IR-only scoring
	// (Combine with irOnly=true cannot fail except via ctx).
	Combine(ctx context.Context, keyword string, base dil.List, irOnly bool) (merged dil.List, changed bool, err error)
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
