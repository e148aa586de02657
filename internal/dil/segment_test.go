package dil

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// borrowList round-trips l through its encoding into a list borrowing the
// bytes.
func borrowList(t *testing.T, l []Entry) *CompactList {
	t.Helper()
	kl, ids := keyed(l)
	b, err := BorrowSegment(Compact(kl, ids).AppendSegment(nil), ids)
	if err != nil {
		t.Fatalf("BorrowSegment: %v", err)
	}
	return b
}

// Acceptance: the encoding is lossless and the borrowed list
// reproduces the original postings exactly.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		l := randomList(rng, n, 20, 8)
		if len(l) == 0 {
			continue
		}
		b := borrowList(t, l)
		if b.Len() != len(l) || b.Blocks() != Compact(keyed(l)).Blocks() {
			t.Fatalf("n=%d: Len/Blocks mismatch", n)
		}
		if !listsEqual(b.Entries(), l) {
			t.Fatalf("n=%d: borrowed Entries() does not reproduce the original", n)
		}
		// Re-encoding a borrowed list reproduces its segment.
		if !bytes.Equal(b.AppendSegment(nil), Compact(keyed(l)).AppendSegment(nil)) {
			t.Fatalf("n=%d: borrowed AppendSegment differs", n)
		}
		if p, bl, err := ValidateSegment(b.AppendSegment(nil), len(l)); err != nil || p != len(l) || bl != b.Blocks() {
			t.Fatalf("n=%d: ValidateSegment = %d, %d, %v", n, p, bl, err)
		}
	}
}

// Acceptance: every Cursor operation over a borrowed list behaves
// exactly like over the heap-decoded list — sequential walks, document
// runs, seeks, and the top-k score bounds.
func TestSegmentCursorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4*BlockSize)
		docs := 2 + rng.Intn(30)
		l := randomList(rng, n, docs, 7)
		if len(l) == 0 {
			continue
		}
		heap := Compact(keyed(l))
		bor := borrowList(t, l)

		// Sequential walk.
		hc, bc := NewCursor(heap), NewCursor(bor)
		for hc.Valid() {
			if !bc.Valid() {
				t.Fatal("borrowed cursor drained early")
			}
			if !hc.Cur().Equal(bc.Cur()) || hc.Score() != bc.Score() || hc.DocID() != bc.DocID() {
				t.Fatalf("trial %d: posting mismatch at %v", trial, hc.Cur())
			}
			if hc.RemainingMax() != bc.RemainingMax() {
				t.Fatalf("trial %d: RemainingMax mismatch", trial)
			}
			hc.Advance()
			bc.Advance()
		}
		if bc.Valid() {
			t.Fatal("borrowed cursor has extra postings")
		}

		// Document runs: heap and borrowed cursors yield each
		// document's postings and their maximum.
		hc, bc = NewCursor(heap), NewCursor(bor)
		for at := 0; at < len(l); {
			end, pm := at, 0.0
			for ; end < len(l) && l[end].ID[0] == l[at].ID[0]; end++ {
				pm = max(pm, l[end].Score)
			}
			pr, first := l[at:end], at
			at = end
			hr, hm := hc.Run()
			br, bm := bc.Run()
			if len(hr) != len(pr) || len(br) != len(pr) || hm != pm || bm != pm {
				t.Fatalf("trial %d: run sizes %d/%d/%d or maxima %v/%v/%v differ",
					trial, len(pr), len(hr), len(br), pm, hm, bm)
			}
			for j := range pr {
				want := Posting{Key: int32(first + j), Doc: pr[j].ID[0], Score: pr[j].Score}
				if hr[j] != want || br[j] != want {
					t.Fatalf("trial %d: run posting %d differs at %v", trial, j, pr[j].ID)
				}
			}
		}
		if hc.Valid() || bc.Valid() {
			t.Fatal("cursor has postings after the list's last document")
		}

		// Random seek sequences (non-decreasing targets).
		hc, bc = NewCursor(heap), NewCursor(bor)
		doc := int32(0)
		for step := 0; step < 30; step++ {
			doc += int32(rng.Intn(3))
			hok, bok := hc.SeekDoc(doc), bc.SeekDoc(doc)
			if hok != bok {
				t.Fatalf("trial %d: SeekDoc(%d) ok mismatch", trial, doc)
			}
			if !hok {
				break
			}
			if !hc.Cur().Equal(bc.Cur()) || hc.Score() != bc.Score() {
				t.Fatalf("trial %d: SeekDoc(%d) landed on different postings", trial, doc)
			}
			if rng.Intn(2) == 0 {
				hc.Advance()
				bc.Advance()
			}
		}
	}
}

// Acceptance: a segment whose framing is damaged — or whose table
// disagrees with its postings — is rejected, never trusted.
func TestBorrowSegmentRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kl, ids := keyed(randomList(rng, 2*BlockSize+7, 10, 5))
	seg := Compact(kl, ids).AppendSegment(nil)
	if _, err := BorrowSegment(seg, ids); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:7] }},
		{"truncated table", func(b []byte) []byte { return b[:segHeaderSize+3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"zero postings", func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0, 0, 0, 0; return b }},
		{"block count", func(b []byte) []byte { b[4]++; return b }},
		{"block offset", func(b []byte) []byte { b[segHeaderSize+segBlockEntrySize]++; return b }},
		{"block firstDoc", func(b []byte) []byte { b[segHeaderSize+4]++; return b }},
		{"block tailMax", func(b []byte) []byte { b[segHeaderSize+segBlockEntrySize+8+6]++; return b }},
	} {
		mut := tc.mut(append([]byte(nil), seg...))
		if _, err := BorrowSegment(mut, ids); err == nil {
			t.Errorf("%s: corrupt segment accepted", tc.name)
		}
	}
}

// rawBlock is one block of a hand-built segment: its table entry's
// first document and tail maximum, and its payload bytes.
type rawBlock struct {
	firstDoc uint32
	tailMax  float64
	payload  []byte
}

// rawSegment frames hand-built blocks of n postings in all, with the
// payload offsets the blocks' lengths give.
func rawSegment(n uint32, blocks ...rawBlock) []byte {
	seg := binary.LittleEndian.AppendUint32(nil, n)
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(blocks)))
	off := 0
	for _, b := range blocks {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(off))
		seg = binary.LittleEndian.AppendUint32(seg, b.firstDoc)
		seg = appendScore(seg, b.tailMax)
		off += len(b.payload)
	}
	for _, b := range blocks {
		seg = append(seg, b.payload...)
	}
	return seg
}

// dict starts a block payload with its score dictionary.
func dict(scores ...float64) []byte {
	b := []byte{byte(len(scores))}
	for _, s := range scores {
		b = appendScore(b, s)
	}
	return b
}

// Acceptance: payloads framed by a consistent table, but not what
// Compact writes, are rejected, not mis-decoded — in particular a key
// past the table is refused before IDs.ID could index with it.
func TestDecodeCompactRejects(t *testing.T) {
	// One posting, key 0 in document 0, score 0.5: the valid baseline.
	one := func(p []byte) []byte { return rawSegment(1, rawBlock{0, 0.5, p}) }
	valid := one(appendUvarints(dict(0.5), 0<<1|1, 0, 0))
	ids := IDs{Base: &Keys{ids: make([]xmltree.Dewey, 4)}}
	if _, err := BorrowSegment(valid, ids); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	// Two blocks: 128 postings of document 0 at keys 0..127, then one
	// whose key is delta-coded to 5 — below its predecessor's.
	full := appendUvarints(dict(0.5), 0<<1|1, 0, 0)
	for j := 1; j < BlockSize; j++ {
		full = appendUvarints(full, 0, 0)
	}
	descending := rawSegment(BlockSize+1, rawBlock{0, 0.5, full},
		rawBlock{0, 0.5, appendUvarints(dict(0.5), 5<<1|1, 0, 0)})
	if _, err := BorrowSegment(descending, IDs{Base: &Keys{ids: make([]xmltree.Dewey, 2*BlockSize)}}); err == nil {
		t.Error("keys that do not ascend: corrupt segment accepted")
	}
	for _, tc := range []struct {
		name string
		seg  []byte
	}{
		{"score index past the dictionary", one(appendUvarints(dict(0.5), 0<<1|1, 0, 1))},
		{"dictionary larger than its block", one(appendUvarints(dict(0.5, 0.25), 0<<1|1, 0, 0))},
		{"empty dictionary", one(appendUvarints(dict(), 0<<1|1, 0, 0))},
		{"dictionary out of first-use order", rawSegment(2, rawBlock{0, 0.5,
			appendUvarints(dict(0.5, 0.25), 0<<1|1, 0, 1, 0, 0)})},
		{"repeated dictionary score", rawSegment(2, rawBlock{0, 0.5,
			appendUvarints(dict(0.5, 0.5), 0<<1|1, 0, 0, 0, 1)})},
		{"unused dictionary score", rawSegment(2, rawBlock{0, 0.5,
			appendUvarints(dict(0.5, 0.25), 0<<1|1, 0, 0, 0, 0)})},
		{"first posting without a document", one(appendUvarints(dict(0.5), 0<<1, 0))},
		{"table firstDoc disagrees with the payload", rawSegment(1, rawBlock{3, 0.5,
			appendUvarints(dict(0.5), 0<<1|1, 0, 0)})},
		{"table tailMax disagrees with the payload", rawSegment(1, rawBlock{0, 0.75,
			appendUvarints(dict(0.5), 0<<1|1, 0, 0)})},
		{"key past the table", one(appendUvarints(dict(0.5), 4<<1|1, 0, 0))},
		{"key overflows int32", one(appendUvarints(dict(0.5), (math.MaxInt32+1)<<1|1, 0, 0))},
		{"non-canonical key varint", one(append(dict(0.5), 0x81, 0x00, 0, 0))},
		{"truncated score index", one(appendUvarints(dict(0.5), 0<<1|1, 0))},
	} {
		if _, err := BorrowSegment(tc.seg, ids); err == nil {
			t.Errorf("%s: corrupt segment accepted", tc.name)
		}
	}
}
