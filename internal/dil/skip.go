package dil

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/xmltree"
)

// Cursor is a forward iterator over one posting list, the unit the
// query phase's merge operates on. It works over either representation:
// a CompactList (sequential front-code decoding with block skip
// entries) or a built List with the table resolving its keys (index
// walking with galloping seeks), so a merge can mix prebuilt compact
// lists with on-demand built ones.
//
// A fresh cursor is positioned on the first posting (Valid reports
// whether one exists). Cur returns a view of the current identifier
// that is only valid until the next Advance/SeekDoc/Reset: the compact
// decoder reuses one scratch buffer. Callers that retain an identifier
// must copy it.
type Cursor struct {
	// exactly one of cl, pl is set
	cl  *CompactList
	pl  List
	ids IDs // resolves pl's keys

	i     int           // current posting index
	off   int           // offset of the next suffix to decode (compact): a comps index for a heap list, a payload byte offset for a borrowed one
	cur   xmltree.Dewey // scratch holding the current identifier (compact)
	score float64       // current posting's score (borrowed lists decode it inline)

	// suf[i] is the maximum score of pl[i:], built lazily on the first
	// RemainingMax call over a built list (compact lists carry their
	// suffix maxima per block). Invalidated when the cursor is repointed.
	suf     []float64
	haveSuf bool

	// run holds the postings of the current document Run returned. Over
	// a compact list their identifiers are subslices of runComps; over
	// a built list, the table's.
	run      []Entry
	runComps []int32

	blocksSkipped int64
}

// NewCursor positions a cursor on the first posting of a compact list.
func NewCursor(c *CompactList) Cursor {
	cur := Cursor{cl: c}
	cur.Reset()
	return cur
}

// SetCompact repoints the cursor at a compact list and rewinds,
// keeping the scratch buffer — pooled mergers reuse cursors across
// runs without reallocating.
func (cu *Cursor) SetCompact(c *CompactList) {
	cu.cl, cu.pl, cu.ids = c, nil, IDs{}
	cu.haveSuf = false
	cu.Reset()
}

// SetList repoints the cursor at a built list, whose keys ids resolves,
// and rewinds. It also drops the previous runs' identifiers, so a
// pooled cursor keeps no table reachable.
func (cu *Cursor) SetList(l List, ids IDs) {
	cu.cl, cu.pl, cu.ids = nil, l, ids
	clear(cu.run[:cap(cu.run)])
	cu.haveSuf = false
	cu.Reset()
}

// Reset rewinds to the first posting, keeping the scratch buffer.
func (cu *Cursor) Reset() {
	cu.i, cu.off, cu.blocksSkipped = 0, 0, 0
	cu.cur = cu.cur[:0]
	if cu.cl != nil && cu.cl.n > 0 {
		cu.decode()
	}
}

// decode materializes posting cu.i into the scratch buffer (compact
// mode), reusing the prefix it shares with the previous posting in
// place. cu.off must already point at the posting's suffix.
func (cu *Cursor) decode() {
	c := cu.cl
	if c.raw != nil {
		pl, sl, off := cu.borrowedHeader()
		cu.cur = cu.borrowedSuffix(cu.cur[:pl], sl, off)
		return
	}
	pl, sl := int(c.prefixLens[cu.i]), int(c.suffixLens[cu.i])
	cu.cur = append(cu.cur[:pl], c.comps[cu.off:cu.off+sl]...)
	cu.off += sl
}

// decodeTo appends posting cu.i's identifier to dst — the first
// components it shares with prev, the previous posting's identifier,
// then its own suffix — and advances cu.off past it (compact mode).
func (cu *Cursor) decodeTo(dst []int32, prev xmltree.Dewey) []int32 {
	c := cu.cl
	if c.raw != nil {
		pl, sl, off := cu.borrowedHeader()
		return cu.borrowedSuffix(append(dst, prev[:pl]...), sl, off)
	}
	pl, sl := int(c.prefixLens[cu.i]), int(c.suffixLens[cu.i])
	dst = append(append(dst, prev[:pl]...), c.comps[cu.off:cu.off+sl]...)
	cu.off += sl
	return dst
}

// borrowedHeader parses the uvarint prefix and suffix lengths of the
// borrowed posting at cu.off and returns them with the offset of its
// suffix. The structure was fully validated by BorrowSegment, so the
// borrowed decoder skips bounds and canonicality checks; the one-byte
// varint fast path keeps it competitive with the heap decoder's array
// reads (Dewey components are almost always < 128).
func (cu *Cursor) borrowedHeader() (pl, sl, off int) {
	raw := cu.cl.raw
	off = cu.off
	p, q := uint64(raw[off]), uint64(raw[off+1])
	off += 2
	if p >= 0x80 {
		var n int
		p, n = binary.Uvarint(raw[off-2:])
		off += n - 2
		q = uint64(raw[off])
		off++
	}
	if q >= 0x80 {
		var n int
		q, n = binary.Uvarint(raw[off-1:])
		off += n - 1
	}
	return int(p), int(q), off
}

// borrowedSuffix appends the sl suffix components at off to dst, reads
// the 8-byte score that follows them, and advances cu.off past it.
func (cu *Cursor) borrowedSuffix(dst []int32, sl, off int) []int32 {
	raw := cu.cl.raw
	for j := 0; j < sl; j++ {
		v := uint64(raw[off])
		off++
		if v >= 0x80 {
			var n int
			v, n = binary.Uvarint(raw[off-1:])
			off += n - 1
		}
		dst = append(dst, int32(v))
	}
	cu.score = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
	cu.off = off + 8
	return dst
}

// Valid reports whether the cursor is positioned on a posting.
func (cu *Cursor) Valid() bool {
	if cu.cl != nil {
		return cu.i < cu.cl.n
	}
	return cu.i < len(cu.pl)
}

// Cur returns the current posting's Dewey identifier. The returned
// slice is a view; it is invalidated by the next cursor movement.
func (cu *Cursor) Cur() xmltree.Dewey {
	if cu.cl != nil {
		return cu.cur
	}
	return cu.ids.ID(cu.pl[cu.i].Key)
}

// Score returns the current posting's node score.
func (cu *Cursor) Score() float64 {
	if cu.cl != nil {
		if cu.cl.raw != nil {
			return cu.score
		}
		return cu.cl.scores[cu.i]
	}
	return cu.pl[cu.i].Score
}

// DocID returns the current posting's document component.
func (cu *Cursor) DocID() int32 {
	if cu.cl != nil {
		return cu.cur[0]
	}
	return cu.pl[cu.i].Doc
}

// Advance moves to the next posting; false means the list is drained.
func (cu *Cursor) Advance() bool {
	cu.i++
	if !cu.Valid() {
		return false
	}
	if cu.cl != nil {
		if cu.i%BlockSize == 0 {
			// Entering the next block sequentially: realign to its
			// restart point (off already equals it, but be explicit so
			// seeks and advances share one invariant).
			cu.off = cu.cl.blockPayloadOff(cu.i / BlockSize)
		}
		cu.decode()
	}
	return true
}

// SeekDoc advances to the first posting whose document ID is >= doc,
// using block skip entries (compact) or binary search (plain) to jump
// without decoding the postings in between. It never moves backwards.
// False means no such posting exists (the cursor is left drained).
func (cu *Cursor) SeekDoc(doc int32) bool {
	if !cu.Valid() {
		return false
	}
	if cu.DocID() >= doc {
		return true
	}
	if cu.cl == nil {
		// Gallop from the current position: the target is usually a
		// few documents ahead, so probe i+1, i+2, i+4, ... until a
		// posting reaches doc, then binary-search the last gap.
		pl := cu.pl
		lo, step := cu.i, 1 // pl[lo] is below doc
		hi := lo + step
		for hi < len(pl) && pl[hi].Doc < doc {
			lo, step = hi, step*2
			hi = lo + step
		}
		if hi > len(pl) {
			hi = len(pl)
		}
		// First posting in (lo, hi] with DocID >= doc; hi itself when
		// none before it (hi == len(pl) drains the cursor).
		gap := pl[lo+1 : hi]
		cu.i = lo + 1 + sort.Search(len(gap), func(j int) bool { return gap[j].Doc >= doc })
		return cu.Valid()
	}
	c := cu.cl
	// Jump to the last block whose first document is strictly < doc.
	// The first posting with document >= doc cannot lie before that
	// block, and a block whose first document equals doc may be the
	// continuation of a run that began at the tail of the block before
	// it — jumping there would overshoot postings of the target
	// document itself.
	cb := cu.i / BlockSize
	rest := c.nblocks() - cb - 1
	j := sort.Search(rest, func(j int) bool { return c.blockFirstDoc(cb+1+j) >= doc })
	if b := cb + j; b > cb {
		cu.blocksSkipped += int64(b - cb - 1)
		cu.i = b * BlockSize
		cu.off = c.blockPayloadOff(b)
		cu.decode()
	}
	for cu.cur[0] < doc {
		if !cu.Advance() {
			return false
		}
	}
	return true
}

// BlocksSkipped reports how many whole blocks SeekDoc bypassed without
// decoding since the cursor was created or Reset.
func (cu *Cursor) BlocksSkipped() int64 { return cu.blocksSkipped }

// RemainingMax returns an upper bound on the score of every posting at
// or after the current position: the per-block suffix maximum for a
// compact list, a lazily built (and cursor-cached) suffix-max array for
// a built one. A drained cursor bounds at 0.
func (cu *Cursor) RemainingMax() float64 {
	if !cu.Valid() {
		return 0
	}
	if cu.cl != nil {
		return cu.cl.blockTailMax(cu.i / BlockSize)
	}
	if !cu.haveSuf {
		if cap(cu.suf) < len(cu.pl) {
			cu.suf = make([]float64, len(cu.pl))
		}
		cu.suf = cu.suf[:len(cu.pl)]
		max := cu.pl[len(cu.pl)-1].Score
		for i := len(cu.pl) - 1; i >= 0; i-- {
			if cu.pl[i].Score > max {
				max = cu.pl[i].Score
			}
			cu.suf[i] = max
		}
		cu.haveSuf = true
	}
	return cu.suf[cu.i]
}

// Run returns the current document's postings — from the current
// position through the last posting of the same document — with their
// maximum score (0 for a drained cursor), and leaves the cursor on the
// next document's first posting. One pass serves both the merge and
// the top-k document bound. The run is the cursor's reusable buffer,
// valid only until its next Run, Reset, SetList or SetCompact: a built
// list's postings are resolved into it as views of the table's
// identifiers, and a compact cursor decodes them into its scratch.
func (cu *Cursor) Run() ([]Entry, float64) {
	if !cu.Valid() {
		return nil, 0
	}
	doc := cu.DocID()
	max := 0.0
	if cu.cl == nil {
		pl, ids, run, i := cu.pl, cu.ids, cu.run[:0], cu.i
		for ; i < len(pl) && pl[i].Doc == doc; i++ {
			run = append(run, Entry{ID: ids.ID(pl[i].Key), Score: pl[i].Score})
			if pl[i].Score > max {
				max = pl[i].Score
			}
		}
		cu.run, cu.i = run, i
		return run, max
	}
	// Each posting is decoded straight into runComps, its prefix taken
	// from the previous posting of the run. Earlier identifiers stay
	// valid when runComps grows: they keep the old array, and nothing
	// rewrites it before the next Run.
	c := cu.cl
	cu.runComps = append(cu.runComps[:0], cu.cur...)
	cu.run = append(cu.run[:0], Entry{ID: cu.runComps[:len(cu.runComps):len(cu.runComps)], Score: cu.Score()})
	if s := cu.run[0].Score; s > max {
		max = s
	}
	for cu.i++; cu.i < c.n; cu.i++ {
		if cu.i%BlockSize == 0 {
			cu.off = c.blockPayloadOff(cu.i / BlockSize) // a restart point
		}
		start := len(cu.runComps)
		cu.runComps = cu.decodeTo(cu.runComps, cu.run[len(cu.run)-1].ID)
		if cu.runComps[start] != doc {
			// The next document's first posting: the new position.
			cu.cur = append(cu.cur[:0], cu.runComps[start:]...)
			cu.runComps = cu.runComps[:start]
			break
		}
		s := cu.Score()
		cu.run = append(cu.run, Entry{ID: cu.runComps[start:len(cu.runComps):len(cu.runComps)], Score: s})
		if s > max {
			max = s
		}
	}
	return cu.run, max
}
