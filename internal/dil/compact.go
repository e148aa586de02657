package dil

import (
	"encoding/binary"
	"math"

	"repro/internal/xmltree"
)

// Compact block-structured posting lists.
//
// A List is pointer-heavy: every posting carries its own Dewey slice
// header and backing array, so a merge walks one small heap object per
// posting. CompactList stores the same postings in flat arenas: all
// Dewey components live in one []int32, front-coded against the
// previous posting (a shared-prefix length plus the differing suffix),
// and scores live in one []float64. Postings are grouped into
// fixed-size blocks; the first posting of each block is stored in full
// (a "restart point") so decoding can begin at any block boundary
// without touching earlier postings. Each block carries a skip entry —
// the arena offset of its restart point, the document ID of its first
// posting, and the maximum posting score inside the block — which lets
// the query phase's zig-zag merge jump whole blocks when seeking a
// document, without decoding the postings in between (DESIGN.md §12).
//
// The representation is lossless: Compact(l).List() reproduces l
// exactly, and the arena segment encoding (segment.go) round-trips
// through AppendSegment / BorrowSegment bit-identically.

// BlockSize is the number of postings per block. 128 keeps skip
// entries ~1% of postings while amortizing the restart-point cost.
const BlockSize = 128

// blockEntry is one skip entry: where a block's restart point lives
// and what the merge needs to decide whether to enter the block.
type blockEntry struct {
	// compOff is the offset into comps of the block's first posting's
	// components (stored in full: prefixLen 0).
	compOff int
	// firstDoc is the document ID of the block's first posting. Blocks
	// are in Dewey order, so firstDoc is non-decreasing across blocks.
	firstDoc int32
	// maxScore is the largest posting score inside the block, kept for
	// score-aware pruning (the RDIL-style upper bound of a block).
	maxScore float64
}

// CompactList is the block-structured form of a posting list.
// It is immutable after construction and safe for concurrent readers.
type CompactList struct {
	n int
	// scores[i] is posting i's node score NS(v, w).
	scores []float64
	// prefixLens[i] is the number of leading Dewey components posting i
	// shares with posting i-1 (always 0 at block restart points).
	prefixLens []uint32
	// suffixLens[i] is the number of components stored for posting i in
	// the comps arena; len(ID_i) = prefixLens[i] + suffixLens[i].
	suffixLens []uint32
	// comps holds every posting's suffix components, concatenated.
	comps []int32
	// blocks has one skip entry per ceil(n/BlockSize) block.
	blocks []blockEntry
	// tailMax[b] is the maximum posting score in blocks b..end — the
	// suffix maximum of the block maxScores. The top-k merge reads it as
	// "no posting at or after block b can score above tailMax[b]" to
	// terminate a whole merge once the running threshold exceeds the sum
	// of the lists' remaining maxima.
	tailMax []float64

	// Borrowed mode (segment.go): when raw is non-nil the list serves
	// directly out of an arena segment — rawBlocks is the explicit skip
	// table and raw the front-coded posting payload — and the heap
	// arenas above are all nil. The backing bytes typically alias an
	// mmap'd file; whoever constructed the list guarantees they outlive
	// it.
	rawBlocks []byte
	raw       []byte
}

// Borrowed reports whether the list serves postings out of borrowed
// bytes (an arena segment) rather than decoded heap arenas.
func (c *CompactList) Borrowed() bool { return c.raw != nil }

// nblocks returns the skip-entry count in either representation.
func (c *CompactList) nblocks() int {
	if c.raw != nil {
		return len(c.rawBlocks) / segBlockEntrySize
	}
	return len(c.blocks)
}

// blockPayloadOff returns where block b's restart point lives: a comps
// index in heap mode, a payload byte offset in borrowed mode. The two
// are never mixed — the Cursor's off field lives in the same space as
// its list.
func (c *CompactList) blockPayloadOff(b int) int {
	if c.raw != nil {
		return int(binary.LittleEndian.Uint32(c.rawBlocks[b*segBlockEntrySize:]))
	}
	return c.blocks[b].compOff
}

// blockFirstDoc returns the document ID of block b's first posting.
func (c *CompactList) blockFirstDoc(b int) int32 {
	if c.raw != nil {
		return int32(binary.LittleEndian.Uint32(c.rawBlocks[b*segBlockEntrySize+4:]))
	}
	return c.blocks[b].firstDoc
}

// blockMaxScore returns the largest posting score inside block b.
func (c *CompactList) blockMaxScore(b int) float64 {
	if c.raw != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(c.rawBlocks[b*segBlockEntrySize+8:]))
	}
	return c.blocks[b].maxScore
}

// blockTailMax returns the suffix maximum over blocks b..end.
func (c *CompactList) blockTailMax(b int) float64 {
	if c.raw != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(c.rawBlocks[b*segBlockEntrySize+16:]))
	}
	return c.tailMax[b]
}

// buildTailMax computes the suffix maxima over the block maxScores.
// Called once at the end of both constructors; the arrays are immutable
// afterwards.
func (c *CompactList) buildTailMax() {
	if len(c.blocks) == 0 {
		return
	}
	c.tailMax = make([]float64, len(c.blocks))
	max := c.blocks[len(c.blocks)-1].maxScore
	for b := len(c.blocks) - 1; b >= 0; b-- {
		if c.blocks[b].maxScore > max {
			max = c.blocks[b].maxScore
		}
		c.tailMax[b] = max
	}
}

// Compact converts a Dewey-ordered list to its block-structured form.
// Postings must have non-empty identifiers (every node has at least a
// document component); an empty identifier panics, as it would in the
// stack merge.
func Compact(l List) *CompactList {
	c := &CompactList{
		n:          len(l),
		scores:     make([]float64, len(l)),
		prefixLens: make([]uint32, len(l)),
		suffixLens: make([]uint32, len(l)),
	}
	if len(l) == 0 {
		return c
	}
	c.blocks = make([]blockEntry, 0, (len(l)+BlockSize-1)/BlockSize)
	var prev xmltree.Dewey
	for i, p := range l {
		if len(p.ID) == 0 {
			panic("dil: Compact on posting with empty Dewey identifier")
		}
		c.scores[i] = p.Score
		prefix := 0
		if i%BlockSize == 0 {
			// Restart point: store the identifier in full and open a
			// new skip entry.
			c.blocks = append(c.blocks, blockEntry{
				compOff:  len(c.comps),
				firstDoc: p.ID[0],
				maxScore: p.Score,
			})
		} else {
			for prefix < len(prev) && prefix < len(p.ID) && prev[prefix] == p.ID[prefix] {
				prefix++
			}
			b := &c.blocks[len(c.blocks)-1]
			if p.Score > b.maxScore {
				b.maxScore = p.Score
			}
		}
		c.prefixLens[i] = uint32(prefix)
		c.suffixLens[i] = uint32(len(p.ID) - prefix)
		c.comps = append(c.comps, p.ID[prefix:]...)
		prev = p.ID
	}
	c.buildTailMax()
	return c
}

// Len returns the number of postings.
func (c *CompactList) Len() int { return c.n }

// Blocks returns the number of blocks (skip entries).
func (c *CompactList) Blocks() int { return c.nblocks() }

// BlockMaxScore returns the maximum posting score of block b (the
// skip entry's score bound).
func (c *CompactList) BlockMaxScore(b int) float64 { return c.blockMaxScore(b) }

// TailMaxScore returns the maximum posting score in blocks b..end (the
// suffix maximum of the block bounds): no posting at or after block b
// scores above it.
func (c *CompactList) TailMaxScore(b int) float64 { return c.blockTailMax(b) }

// MemBytes estimates the resident size of the arenas, for stats. For a
// borrowed list this is the size of the backing byte range, which is
// mapped rather than heap-resident.
func (c *CompactList) MemBytes() int {
	if c.raw != nil {
		return len(c.rawBlocks) + len(c.raw)
	}
	return 8*len(c.scores) + 4*len(c.prefixLens) + 4*len(c.suffixLens) +
		4*len(c.comps) + 24*len(c.blocks) + 8*len(c.tailMax)
}

// List reconstructs the original posting list. The returned postings
// own independent Dewey slices (heap-allocated even in borrowed mode,
// so they outlive the backing segment).
func (c *CompactList) List() List {
	if c.n == 0 {
		return nil
	}
	if c.raw != nil {
		out := make(List, 0, c.n)
		cu := NewCursor(c)
		for cu.Valid() {
			out = append(out, Posting{ID: cu.Cur().Clone(), Score: cu.Score()})
			cu.Advance()
		}
		return out
	}
	out := make(List, c.n)
	var cur xmltree.Dewey
	off := 0
	for i := 0; i < c.n; i++ {
		pl, sl := int(c.prefixLens[i]), int(c.suffixLens[i])
		cur = append(cur[:pl], c.comps[off:off+sl]...)
		off += sl
		out[i] = Posting{ID: cur.Clone(), Score: c.scores[i]}
	}
	return out
}

// uvarintLen returns the number of bytes binary.AppendUvarint uses for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
