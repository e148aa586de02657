package dil

import (
	"encoding/binary"
	"math"

	"repro/internal/xmltree"
)

// Compact block-structured posting lists.
//
// A List names elements by key, which only the stage that built it
// resolves. CompactList stores the same postings self-contained, with
// their Dewey identifiers, in flat arenas — the form a prebuilt index
// and the on-disk arena hold: all Dewey components live in one
// []int32, front-coded against the previous posting (a shared-prefix
// length plus the differing suffix), and scores live in one
// []float64. Postings are grouped into fixed-size blocks; the first
// posting of each block is stored in full (a "restart point") so
// decoding can begin at any block boundary without touching earlier
// postings. Each block carries a skip entry — the arena offset of its
// restart point, the document ID of its first posting, and the maximum
// posting score inside the block — which lets the query phase's
// zig-zag merge jump whole blocks when seeking a document, without
// decoding the postings in between (DESIGN.md §12).
//
// The representation is lossless: Compact(l, ids).Entries() equals
// ids.Entries(l), and the arena segment encoding (segment.go)
// round-trips through AppendSegment / BorrowSegment bit-identically.

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

// Compact converts a key-ordered list, whose keys ids resolves, to its
// block-structured form. Postings must have non-empty identifiers
// (every node has at least a document component); an empty identifier
// panics, as it would in the stack merge.
func Compact(l List, ids IDs) *CompactList {
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
		id := ids.ID(p.Key)
		if len(id) == 0 {
			panic("dil: Compact on posting with empty Dewey identifier")
		}
		c.scores[i] = p.Score
		prefix := 0
		if i%BlockSize == 0 {
			// Restart point: store the identifier in full and open a
			// new skip entry.
			c.blocks = append(c.blocks, blockEntry{
				compOff:  len(c.comps),
				firstDoc: id[0],
				maxScore: p.Score,
			})
		} else {
			for prefix < len(prev) && prefix < len(id) && prev[prefix] == id[prefix] {
				prefix++
			}
			b := &c.blocks[len(c.blocks)-1]
			if p.Score > b.maxScore {
				b.maxScore = p.Score
			}
		}
		c.prefixLens[i] = uint32(prefix)
		c.suffixLens[i] = uint32(len(id) - prefix)
		c.comps = append(c.comps, id[prefix:]...)
		prev = id
	}
	c.buildTailMax()
	return c
}

// Len returns the number of postings.
func (c *CompactList) Len() int { return c.n }

// Blocks returns the number of blocks (skip entries).
func (c *CompactList) Blocks() int { return c.nblocks() }

// Entries decodes the list to its Dewey form — RDIL's random access
// reads it. The entries own independent Dewey slices (heap-allocated
// even in borrowed mode, so they outlive the backing segment).
func (c *CompactList) Entries() []Entry {
	if c.n == 0 {
		return nil
	}
	out := make([]Entry, 0, c.n)
	for cu := NewCursor(c); cu.Valid(); cu.Advance() {
		out = append(out, Entry{ID: cu.Cur().Clone(), Score: cu.Score()})
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
