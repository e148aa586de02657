package dil

import (
	"context"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/ontoscore"
)

// Live is one state of a base corpus overlaid by a live delta segment
// (internal/delta), as a builder pinned to it reads it.
type Live struct {
	// Stats are the state's collection statistics: the base snapshot
	// adjusted for the delta's adds and tombstones.
	Stats ir.StatsView
	// Dead reports the state's suppressed documents — tombstoned base
	// documents and superseded delta versions (nil: none).
	Dead func(docID int32) bool
	// Delta indexes the state's delta documents under Stats (nil: none).
	// Delta document IDs are assigned above every base ID, so its
	// postings follow the base's in Dewey order, and a pinned list keys
	// them after the base's elements (IDs).
	Delta *Builder
	// Owns keeps the delta documents the list serves — a shard slot's
	// own (nil: all of them).
	Owns func(docID int32) bool
	// Norm is the normalization authority when the pinned builder
	// indexes one shard of the base corpus: a builder over all of it
	// (nil: the pinned builder itself).
	Norm *Builder
}

// Pin returns a view of the builder pinned to one live state. Its BM25
// reads the state's statistics, whatever the segment publishes
// meanwhile, and a keyword build is one pass over the base and one over
// the delta: both are normalized by one divisor — the maximum raw score
// over the state's live containing set (Section III), computed once
// per build — the dead documents' postings are dropped as the base is
// emitted, and the delta's are appended to the same list. The list
// equals a builder's over the state's live corpus, bit for bit.
func (b *Builder) Pin(l Live) *Builder {
	if l.Norm != nil {
		l.Norm = l.Norm.view(l.Stats)
	}
	p := b.view(l.Stats)
	p.live = &l
	return p
}

// view is a calibrator-free view of b's stage under statistics v.
func (b *Builder) view(v ir.StatsView) *Builder {
	return &Builder{stage: b.stage, strategy: b.strategy, textIx: b.text.Overlay(v)}
}

// assembleLive is a pinned build's assembly (encoded as it goes with
// enc set; see sink): the base postings of live documents, then the
// delta's keyed after the base's elements. The delta reads the base's
// OntoScores unless its side is another one (a read on the outgoing
// generation that acquired a state rebased onto the next generation's
// side, whose concept numbering may differ).
func (b *Builder) assembleLive(ctx context.Context, sp *obs.Span, keyword string, onto []ontoscore.Dense, irOnly bool, enc *encoder) List {
	d := b.live.Delta
	dOnto := onto
	if d != nil && !irOnly && d.side != b.side {
		dOnto = d.ontoScores(ctx, sp, keyword)
	}
	text, dText := b.liveTextScores(ctx, keyword)
	sc, n := b.mark(text, onto)
	var dsc *scratch
	if d != nil {
		var dn int
		dsc, dn = d.mark(dText, dOnto)
		n += dn
	}
	out := b.emit(sink(n, enc), 0, text, sc, b.live.Dead, enc)
	if d != nil {
		out = d.emit(out, int32(len(b.ids)), dText, dsc, b.dropDelta, enc)
	}
	return out
}

// dropDelta reports the delta documents a pinned list leaves out:
// superseded versions and, on a shard slot, documents it does not own.
func (b *Builder) dropDelta(id int32) bool {
	l := b.live
	return (l.Dead != nil && l.Dead(id)) || (l.Owns != nil && !l.Owns(id))
}

// liveTextScores is a pinned build's IR branch: the base's and the
// delta's raw scores under the state's statistics, both normalized by
// the maximum over the live containing set — the norm authority's live
// base elements and the live delta's.
func (b *Builder) liveTextScores(ctx context.Context, keyword string) (base, delta []ir.Scored) {
	_, sp := obs.StartSpan(ctx, "dil.text_scores")
	sp.SetAttr("keyword", keyword)
	defer sp.End()
	l := b.live
	base = b.rawTextScores(keyword)
	var norm float64
	if l.Norm != nil {
		norm = l.Norm.RawTextMaxLive(keyword, l.Dead)
	} else {
		norm = b.liveMax(base, l.Dead)
	}
	if l.Delta != nil {
		delta = l.Delta.rawTextScores(keyword)
		norm = max(norm, l.Delta.liveMax(delta, l.Dead))
	}
	normalize(base, norm)
	normalize(delta, norm)
	sp.SetAttr("elements", len(base)+len(delta))
	return base, delta
}
