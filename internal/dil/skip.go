package dil

import (
	"encoding/binary"
	"math"
)

// Cursor is a forward iterator over one CompactList, the unit the
// query phase's merge operates on. It decodes only the blocks it
// enters: a seek jumps over whole blocks on the table's first
// documents, and the table's tail maxima bound what is left.
//
// A fresh cursor is positioned on the first posting (Valid reports
// whether one exists).
type Cursor struct {
	cl *CompactList

	i     int // current posting index
	off   int // payload offset of the next posting
	dict  int // payload offset of the current block's dictionary
	key   int32
	doc   int32
	score float64

	// run holds the postings of the current document Run returned.
	run []Posting

	blocksSkipped int64
}

// NewCursor positions a cursor on the first posting of c.
func NewCursor(c *CompactList) Cursor {
	var cu Cursor
	cu.Set(c)
	return cu
}

// Set repoints the cursor at c (nil: none) and rewinds, keeping its
// run buffer: pooled mergers reuse cursors across runs.
func (cu *Cursor) Set(c *CompactList) {
	cu.cl = c
	cu.Reset()
}

// Reset rewinds to the first posting.
func (cu *Cursor) Reset() {
	cu.blocksSkipped = 0
	cu.enter(0)
}

// enter positions the cursor on the first posting of block b (drained
// when the list has none).
func (cu *Cursor) enter(b int) {
	cu.i = b*BlockSize - 1
	cu.Advance()
}

// uvarint reads the uvarint at off in p and returns it with the offset
// past it. BorrowSegment validated the bytes (and the encoder wrote
// them), so the cursor's decode checks neither bounds nor
// canonicality. The decoders read the one-byte form inline — it covers
// almost every key and document delta — and call this for the rest.
func uvarint(p []byte, off int) (uint64, int) {
	v, n := binary.Uvarint(p[off:])
	return v, off + n
}

// Valid reports whether the cursor is positioned on a posting.
func (cu *Cursor) Valid() bool { return cu.i < cu.cl.Len() }

// Score returns the current posting's node score.
func (cu *Cursor) Score() float64 { return cu.score }

// DocID returns the current posting's document.
func (cu *Cursor) DocID() int32 { return cu.doc }

// Advance moves to the next posting, decoding it; false means the list
// is drained. Entering a block reads its dictionary's size and restarts
// the key and document deltas.
func (cu *Cursor) Advance() bool {
	c := cu.cl
	if cu.i++; cu.i >= c.Len() {
		return false
	}
	p := c.payload
	if cu.i%BlockSize == 0 {
		off := c.blockOff(cu.i / BlockSize)
		cu.dict, cu.off, cu.key, cu.doc = off+1, off+1+8*int(p[off]), -1, -1
	}
	off := cu.off
	v := uint64(p[off])
	if off++; v >= 0x80 {
		v, off = uvarint(p, off-1)
	}
	cu.key += int32(v>>1) + 1
	if v&1 != 0 {
		d := uint64(p[off])
		if off++; d >= 0x80 {
			d, off = uvarint(p, off-1)
		}
		cu.doc += int32(d) + 1
	}
	cu.score = math.Float64frombits(binary.LittleEndian.Uint64(p[cu.dict+8*int(p[off]):]))
	cu.off = off + 1
	return true
}

// SeekDoc advances to the first posting whose document ID is >= doc,
// galloping over the table's first documents without decoding the
// blocks in between. It never moves backwards. False means no such
// posting exists (the cursor is left drained).
func (cu *Cursor) SeekDoc(doc int32) bool {
	if !cu.Valid() {
		return false
	}
	if cu.doc >= doc {
		return true
	}
	c := cu.cl
	// Find the last block whose first document is strictly < doc: the
	// first posting with document >= doc lies in it or opens the next
	// one. (A block whose first document equals doc may continue a run
	// that began at the tail of the block before it — jumping there
	// would overshoot postings of the target document itself.) The
	// current block qualifies; gallop from it, then bisect the gap.
	nb, cb := c.Blocks(), cu.i/BlockSize
	lo, hi := cb, cb+1
	for step := 1; hi < nb && c.blockFirstDoc(hi) < doc; step *= 2 {
		lo, hi = hi, hi+step
	}
	hi = min(hi, nb)
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); c.blockFirstDoc(mid) < doc {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo > cb {
		cu.blocksSkipped += int64(lo - cb - 1)
		cu.enter(lo)
	}
	// Scan the block for the target, decoding keys and documents only:
	// a posting that stays in its predecessor's document cannot be the
	// target, and one with a one-byte key delta is skipped in one test.
	p, i, off, key, d := c.payload, cu.i, cu.off, cu.key, cu.doc
	end := min(c.n, (lo+1)*BlockSize)
	for {
		if i++; i == end {
			// The next block opens at a document >= doc.
			cu.enter(lo + 1)
			return cu.Valid()
		}
		v := uint64(p[off])
		if v&0x81 == 0 {
			key += int32(v>>1) + 1
			off += 2
			continue
		}
		if off++; v >= 0x80 {
			v, off = uvarint(p, off-1)
		}
		key += int32(v>>1) + 1
		if v&1 != 0 {
			dd := uint64(p[off])
			if off++; dd >= 0x80 {
				dd, off = uvarint(p, off-1)
			}
			if d += int32(dd) + 1; d >= doc {
				cu.i, cu.off, cu.key, cu.doc = i, off+1, key, d
				cu.score = math.Float64frombits(binary.LittleEndian.Uint64(p[cu.dict+8*int(p[off]):]))
				return true
			}
		}
		off++
	}
}

// BlocksSkipped reports how many whole blocks SeekDoc bypassed without
// decoding since the cursor was set or Reset.
func (cu *Cursor) BlocksSkipped() int64 { return cu.blocksSkipped }

// RemainingMax returns an upper bound on the score of every posting at
// or after the current position: the largest score from the start of
// the current block on, one table read. A drained cursor bounds at 0.
func (cu *Cursor) RemainingMax() float64 {
	if !cu.Valid() {
		return 0
	}
	return cu.cl.blockTailMax(cu.i / BlockSize)
}

// Run returns the current document's postings — from the current
// position through the last posting of the same document — with their
// maximum score (0 for a drained cursor), and leaves the cursor on the
// next document's first posting. One pass serves both the merge and
// the top-k document bound. The run is the cursor's reusable buffer,
// valid only until its next Run, Reset or Set. It names elements by
// key: no identifier is looked up.
func (cu *Cursor) Run() ([]Posting, float64) {
	if !cu.Valid() {
		return nil, 0
	}
	// Advance's decode, inline over locals: this loop reads every
	// posting a merge scores.
	c := cu.cl
	p := c.payload
	i, off, dict, key, d, score := cu.i, cu.off, cu.dict, cu.key, cu.doc, cu.score
	doc, run, max := d, cu.run[:0], 0.0
	for {
		run = append(run, Posting{Key: key, Doc: d, Score: score})
		if score > max {
			max = score
		}
		if i++; i == c.n {
			break
		}
		if i%BlockSize == 0 {
			cu.enter(i / BlockSize)
			i, off, dict, key, d, score = cu.i, cu.off, cu.dict, cu.key, cu.doc, cu.score
		} else {
			v := uint64(p[off])
			if off++; v >= 0x80 {
				v, off = uvarint(p, off-1)
			}
			key += int32(v>>1) + 1
			if v&1 != 0 {
				dd := uint64(p[off])
				if off++; dd >= 0x80 {
					dd, off = uvarint(p, off-1)
				}
				d += int32(dd) + 1
			}
			score = math.Float64frombits(binary.LittleEndian.Uint64(p[dict+8*int(p[off]):]))
			off++
		}
		if d != doc {
			break
		}
	}
	cu.i, cu.off, cu.dict, cu.key, cu.doc, cu.score = i, off, dict, key, d, score
	cu.run = run
	return run, max
}
