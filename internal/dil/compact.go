package dil

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/xmltree"
)

// Block-coded posting lists.
//
// A CompactList is the one form a keyword's list takes once built: the
// query engine's keyword cache, the prebuilt Index and the arena file
// all hold the same bytes, and one decoder (Cursor) reads them whether
// they live on the heap or in a mapped file. Postings name elements by
// key, as a built List does, and the list carries the table that
// resolves them (IDs); only the merge's returned results ever look an
// identifier up.
//
// Layout (integers little-endian; DESIGN.md §28):
//
//	header   n uint32 | nBlocks uint32
//	table    nBlocks × 16 bytes:
//	           payloadOff uint32   byte offset of the block in the payload
//	           firstDoc   uint32   document ID of the block's first posting
//	           tailMax    float64  largest score in blocks b..end
//	payload  per block of BlockSize postings (the last may be shorter):
//	           dictLen    byte     distinct score bit patterns in the
//	                               block, 1..its posting count
//	           dict       dictLen × float64, in order of first use
//	           per posting:
//	             uvarint  (key − prevKey − 1) << 1 | newDoc
//	             uvarint  doc − prevDoc − 1, present when newDoc is set
//	             byte     index of the posting's score in dict
//
// prevKey and prevDoc are −1 at every block's start, so a block decodes
// without its predecessors: its first posting carries its key and
// document whole, and the table's firstDoc repeats the latter for
// seeks. Keys ascend strictly and documents never descend, so every
// delta is non-negative. A key delta is one byte for almost every
// posting, a document delta is present only where the document
// changes, and no built list has more than a few dozen distinct scores
// in a block, so a posting costs about three bytes instead of a
// Posting's sixteen.

// BlockSize is the number of postings per block: the unit a seek skips
// and a score dictionary covers. 128 keeps the table and the
// dictionaries small beside the postings while a one-byte index still
// addresses every distinct score a block can hold.
const BlockSize = 128

const (
	segHeaderSize     = 8
	segBlockEntrySize = 16
)

// CompactList is the block-coded form of a posting list. It is
// immutable and safe for concurrent readers. Its bytes are a heap
// array the encoder wrote or a borrowed arena segment (BorrowSegment),
// whose owner keeps them mapped for as long as the list is in use.
type CompactList struct {
	n       int
	data    []byte // header | table | payload
	table   []byte
	payload []byte
	ids     IDs
}

// newCompact wraps the encoding in data, whose keys ids resolves.
func newCompact(data []byte, ids IDs) *CompactList {
	n := int(binary.LittleEndian.Uint32(data[0:]))
	nb := int(binary.LittleEndian.Uint32(data[4:]))
	end := segHeaderSize + nb*segBlockEntrySize
	return &CompactList{n: n, data: data, table: data[segHeaderSize:end], payload: data[end:], ids: ids}
}

// Len returns the number of postings (0 for a nil list).
func (c *CompactList) Len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// Blocks returns the number of blocks (0 for a nil list).
func (c *CompactList) Blocks() int {
	if c == nil {
		return 0
	}
	return len(c.table) / segBlockEntrySize
}

// Bytes returns the size of the encoding: what the list keeps resident
// and what the arena writes (Table III's list size).
func (c *CompactList) Bytes() int {
	if c == nil {
		return 0
	}
	return len(c.data)
}

// blockOff returns the payload offset of block b.
func (c *CompactList) blockOff(b int) int {
	return int(binary.LittleEndian.Uint32(c.table[b*segBlockEntrySize:]))
}

// blockFirstDoc returns the document ID of block b's first posting.
func (c *CompactList) blockFirstDoc(b int) int32 {
	return int32(binary.LittleEndian.Uint32(c.table[b*segBlockEntrySize+4:]))
}

// blockTailMax returns the largest score in blocks b..end.
func (c *CompactList) blockTailMax(b int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.table[b*segBlockEntrySize+8:]))
}

// AppendSegment appends the list's encoding to buf: the arena writes
// it as the keyword's segment.
func (c *CompactList) AppendSegment(buf []byte) []byte { return append(buf, c.data...) }

// IDs returns the table that resolves the list's keys.
func (c *CompactList) IDs() IDs { return c.ids }

// Compact encodes a key-ordered list, whose keys ids resolves, into a
// list of its own exact-size bytes (nil for an empty list).
func Compact(l List, ids IDs) *CompactList {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.reset()
	for len(l) > 0 {
		k := min(BlockSize, len(l))
		e.encodeBlock(l[:k])
		l = l[k:]
	}
	return e.finish(ids)
}

// encoder codes a list block by block as its postings arrive: a build
// emits into block (Builder.CompactKeyword, Build), which is encoded
// whenever it fills, so no posting array the size of the list is ever
// assembled. It holds the table and payload so far, and the hash
// slots that find a score's dictionary index in a few instructions.
// Pooled, so a steady stream of builds allocates only the encodings it
// keeps.
type encoder struct {
	block   List   // postings awaiting encoding, at most BlockSize
	n       int    // postings encoded
	table   []byte // the blocks' table entries, tailMax holding each block's own maximum until finish
	payload []byte
	dict    []uint64 // the current block's score bits, in order of first use
	slots   [dictSlots]dictSlot
	stamp   uint32 // marks the slots filled for the current block
}

// dictSlots is the open-addressed table size: twice the largest
// dictionary, so a probe sequence stays short.
const dictSlots = 2 * BlockSize

type dictSlot struct {
	bits  uint64
	stamp uint32
	idx   uint8
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// reset starts a new list.
func (e *encoder) reset() {
	if cap(e.block) < BlockSize {
		e.block = make(List, 0, BlockSize)
	}
	e.block, e.n, e.table, e.payload = e.block[:0], 0, e.table[:0], e.payload[:0]
}

// finish encodes the postings still queued in e.block and returns a
// list over an exact copy of the encoding (nil when it has none).
func (e *encoder) finish(ids IDs) *CompactList {
	if len(e.block) > 0 {
		e.encodeBlock(e.block)
		e.block = e.block[:0]
	}
	if e.n == 0 {
		return nil
	}
	nb := len(e.table) / segBlockEntrySize
	// Tail maxima: the suffix maximum of the block maxima, compared as
	// the blocks' own were.
	tail := math.Float64frombits(binary.LittleEndian.Uint64(e.table[(nb-1)*segBlockEntrySize+8:]))
	for b := nb - 1; b >= 0; b-- {
		at := e.table[b*segBlockEntrySize+8:]
		if m := math.Float64frombits(binary.LittleEndian.Uint64(at)); m > tail {
			tail = m
		}
		binary.LittleEndian.PutUint64(at, math.Float64bits(tail))
	}
	data := make([]byte, segHeaderSize+len(e.table)+len(e.payload))
	binary.LittleEndian.PutUint32(data[0:], uint32(e.n))
	binary.LittleEndian.PutUint32(data[4:], uint32(nb))
	copy(data[segHeaderSize:], e.table)
	copy(data[segHeaderSize+len(e.table):], e.payload)
	return newCompact(data, ids)
}

// encodeBlock appends one block of postings (at most BlockSize) to the
// payload and its entry to the table. Each posting's score bits are
// looked up in the hash slots (neighbours often share a score, so the
// previous posting's is tried first), new ones appended to the
// dictionary in order of first use; the postings are written by index
// past the room the largest dictionary takes, then the dictionary goes
// in front and they move down to meet it. The stamp retires the
// previous block's slots without clearing them.
func (e *encoder) encodeBlock(block List) {
	if e.stamp++; e.stamp == 0 {
		e.slots, e.stamp = [dictSlots]dictSlot{}, 1
	}
	e.dict = e.dict[:0]
	w := len(e.payload)
	buf := grow(e.payload, w+1+8*BlockSize+BlockSize*(2*binary.MaxVarintLen32+1))
	start := w + 1 + 8*BlockSize
	pw := start
	last, x := ^math.Float64bits(block[0].Score), uint8(0)
	key, doc := int32(-1), int32(-1)
	for _, p := range block {
		if bits := math.Float64bits(p.Score); bits != last {
			last, x = bits, e.index(bits)
		}
		v := uint64(p.Key-key-1) << 1
		if p.Doc != doc {
			v |= 1
		}
		if v < 0x80 {
			buf[pw] = uint8(v)
			pw++
		} else {
			pw += binary.PutUvarint(buf[pw:], v)
		}
		if v&1 != 0 {
			pw += binary.PutUvarint(buf[pw:], uint64(p.Doc-doc-1))
		}
		buf[pw] = x
		pw++
		key, doc = p.Key, p.Doc
	}
	// The block's maximum, compared in first-use order as over the
	// postings themselves (a NaN first score stays the maximum).
	max := math.Float64frombits(e.dict[0])
	for _, bits := range e.dict[1:] {
		if s := math.Float64frombits(bits); s > max {
			max = s
		}
	}
	e.table = binary.LittleEndian.AppendUint32(e.table, uint32(w))
	e.table = binary.LittleEndian.AppendUint32(e.table, uint32(block[0].Doc))
	e.table = binary.LittleEndian.AppendUint64(e.table, math.Float64bits(max))
	buf[w] = uint8(len(e.dict))
	w++
	for _, bits := range e.dict {
		binary.LittleEndian.PutUint64(buf[w:], bits)
		w += 8
	}
	w += copy(buf[w:], buf[start:pw])
	e.payload = buf[:w]
	e.n += len(block)
}

// grow returns buf extended to n bytes, its contents kept.
func grow(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf[:max(n, len(buf))]
	}
	return append(buf, make([]byte, n-len(buf))...)
}

// index returns the dictionary index of a score's bits in the current
// block, adding it on first use.
func (e *encoder) index(bits uint64) uint8 {
	h := uint(bits*0x9E3779B97F4A7C15) >> (64 - 8) // dictSlots == 1<<8
	for {
		s := &e.slots[h]
		if s.stamp != e.stamp {
			s.bits, s.stamp, s.idx = bits, e.stamp, uint8(len(e.dict))
			e.dict = append(e.dict, bits)
			return s.idx
		}
		if s.bits == bits {
			return s.idx
		}
		h = (h + 1) % dictSlots
	}
}

// BorrowSegment validates an encoded list (an arena segment body, its
// CRC already checked by the caller) and returns a list that serves
// its postings straight out of seg, resolving keys through ids. The
// caller keeps seg's bytes alive — and mapped — while the list or any
// cursor over it is in use.
//
// Validation proves the bytes are the encoding Compact would write for
// some list over ids: canonical varints; keys ascending within int32
// and inside ids, so IDs.ID can never index past the table; documents
// never descending; every dictionary non-empty, no larger than its
// block, of distinct scores in order of first use, and fully used;
// every score index inside its dictionary; and each table entry's
// offset, first document and tail maximum equal to what its payload
// decodes to. A list that passes is safe for the cursor's unchecked
// decode.
func BorrowSegment(seg []byte, ids IDs) (*CompactList, error) {
	return borrow(seg, ids, ids.Len())
}

// ValidateSegment runs BorrowSegment's validation with keys bounding
// the element keys instead of a table, for tools that check a file
// apart from the stage it indexes; it returns the posting and block
// counts.
func ValidateSegment(seg []byte, keys int) (postings, blocks int, err error) {
	c, err := borrow(seg, IDs{}, keys)
	if err != nil {
		return 0, 0, err
	}
	return c.Len(), c.Blocks(), nil
}

// borrow is BorrowSegment with the key bound apart from the table.
func borrow(seg []byte, ids IDs, keys int) (*CompactList, error) {
	if len(seg) < segHeaderSize {
		return nil, fmt.Errorf("dil: segment header truncated (%d bytes)", len(seg))
	}
	n := int(binary.LittleEndian.Uint32(seg[0:]))
	nb := int(binary.LittleEndian.Uint32(seg[4:]))
	if n <= 0 || n > 1<<28 {
		return nil, fmt.Errorf("dil: implausible segment posting count %d", n)
	}
	if want := (n + BlockSize - 1) / BlockSize; nb != want {
		return nil, fmt.Errorf("dil: segment has %d blocks for %d postings (want %d)", nb, n, want)
	}
	if len(seg) < segHeaderSize+nb*segBlockEntrySize {
		return nil, fmt.Errorf("dil: segment block table truncated")
	}
	c := newCompact(seg, ids)
	p := c.payload
	maxes := make([]float64, nb)
	off := 0
	lastKey, lastDoc := int64(-1), int64(-1)
	for b := 0; b < nb; b++ {
		if c.blockOff(b) != off {
			return nil, fmt.Errorf("dil: segment block %d offset %d, its payload starts at %d", b, c.blockOff(b), off)
		}
		cnt := min(BlockSize, n-b*BlockSize)
		if off >= len(p) {
			return nil, fmt.Errorf("dil: segment block %d truncated", b)
		}
		dl := int(p[off])
		off++
		if dl == 0 || dl > cnt {
			return nil, fmt.Errorf("dil: segment block %d has a dictionary of %d scores for %d postings", b, dl, cnt)
		}
		if off+8*dl > len(p) {
			return nil, fmt.Errorf("dil: segment block %d dictionary truncated", b)
		}
		dict := p[off : off+8*dl]
		off += 8 * dl
		score := func(i int) uint64 { return binary.LittleEndian.Uint64(dict[8*i:]) }
		key, doc, used := int64(-1), int64(-1), 0
		for j := 0; j < cnt; j++ {
			i := b*BlockSize + j
			v, sz, err := xmltree.CanonicalUvarint(p[off:])
			if err != nil {
				return nil, fmt.Errorf("dil: segment posting %d key: %w", i, err)
			}
			off += sz
			if key += int64(v>>1) + 1; key > math.MaxInt32 {
				return nil, fmt.Errorf("dil: segment posting %d key overflows int32", i)
			}
			if j == 0 && key <= lastKey {
				return nil, fmt.Errorf("dil: segment block %d starts at key %d, not after key %d", b, key, lastKey)
			}
			if key >= int64(keys) {
				return nil, fmt.Errorf("dil: segment posting %d key %d past the table's %d elements", i, key, keys)
			}
			if v&1 != 0 {
				d, sz, err := xmltree.CanonicalUvarint(p[off:])
				if err != nil {
					return nil, fmt.Errorf("dil: segment posting %d document: %w", i, err)
				}
				off += sz
				if doc += int64(d) + 1; doc > math.MaxInt32 {
					return nil, fmt.Errorf("dil: segment posting %d document overflows int32", i)
				}
			} else if j == 0 {
				return nil, fmt.Errorf("dil: segment block %d first posting carries no document", b)
			}
			if j == 0 {
				if doc < lastDoc {
					return nil, fmt.Errorf("dil: segment block %d document %d precedes %d", b, doc, lastDoc)
				}
				if int64(c.blockFirstDoc(b)) != doc {
					return nil, fmt.Errorf("dil: segment block %d firstDoc %d, its first posting has %d", b, c.blockFirstDoc(b), doc)
				}
			}
			if off >= len(p) {
				return nil, fmt.Errorf("dil: segment posting %d score index truncated", i)
			}
			x := int(p[off])
			off++
			switch {
			case x >= dl:
				return nil, fmt.Errorf("dil: segment posting %d score index %d past a dictionary of %d", i, x, dl)
			case x > used:
				return nil, fmt.Errorf("dil: segment posting %d score index %d used before index %d", i, x, used)
			case x == used:
				for k := 0; k < x; k++ {
					if score(k) == score(x) {
						return nil, fmt.Errorf("dil: segment block %d repeats dictionary score %d", b, k)
					}
				}
				used++
			}
			if s := math.Float64frombits(score(x)); j == 0 || s > maxes[b] {
				maxes[b] = s
			}
		}
		if used != dl {
			return nil, fmt.Errorf("dil: segment block %d uses %d of its %d dictionary scores", b, used, dl)
		}
		lastKey, lastDoc = key, doc
	}
	if off != len(p) {
		return nil, fmt.Errorf("dil: %d trailing bytes after segment postings", len(p)-off)
	}
	tail := maxes[nb-1]
	for b := nb - 1; b >= 0; b-- {
		if maxes[b] > tail {
			tail = maxes[b]
		}
		if math.Float64bits(c.blockTailMax(b)) != math.Float64bits(tail) {
			return nil, fmt.Errorf("dil: segment block %d tailMax disagrees with its postings", b)
		}
	}
	return c, nil
}
