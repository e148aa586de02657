package dil

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// borrow round-trips l through the segment encoding into borrowed mode.
func borrow(t *testing.T, l []Entry) *CompactList {
	t.Helper()
	seg := Compact(keyed(l)).AppendSegment(nil)
	b, err := BorrowSegment(seg)
	if err != nil {
		t.Fatalf("BorrowSegment: %v", err)
	}
	if !b.Borrowed() {
		t.Fatal("BorrowSegment returned a non-borrowed list")
	}
	return b
}

// Acceptance: the segment encoding is lossless and the borrowed list
// reproduces the original postings exactly.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		l := randomList(rng, n, 20, 8)
		if len(l) == 0 {
			continue
		}
		b := borrow(t, l)
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
		bor := borrow(t, l)

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

		// Document runs: heap, borrowed and keyed cursors yield the same
		// postings and the same per-document maximum.
		hc, bc = NewCursor(heap), NewCursor(bor)
		var pc Cursor
		pc.SetList(keyed(l))
		for pc.Valid() {
			pr, pm := pc.Run()
			hr, hm := hc.Run()
			br, bm := bc.Run()
			if len(hr) != len(pr) || len(br) != len(pr) || hm != pm || bm != pm {
				t.Fatalf("trial %d: run sizes %d/%d/%d or maxima %v/%v/%v differ",
					trial, len(pr), len(hr), len(br), pm, hm, bm)
			}
			for j := range pr {
				if !hr[j].ID.Equal(pr[j].ID) || !br[j].ID.Equal(pr[j].ID) ||
					hr[j].Score != pr[j].Score || br[j].Score != pr[j].Score {
					t.Fatalf("trial %d: run posting %d differs at %v", trial, j, pr[j].ID)
				}
			}
		}
		if hc.Valid() || bc.Valid() {
			t.Fatal("compact cursor has postings after the keyed one drained")
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

// Acceptance: a segment whose skip table disagrees with its postings —
// or whose structure is otherwise damaged — is rejected, never trusted.
func TestBorrowSegmentRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randomList(rng, 2*BlockSize+7, 10, 5)
	seg := Compact(keyed(l)).AppendSegment(nil)
	if _, err := BorrowSegment(seg); err != nil {
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
		{"block offset", func(b []byte) []byte { b[segHeaderSize]++; return b }},
		{"block firstDoc", func(b []byte) []byte { b[segHeaderSize+4]++; return b }},
		{"block maxScore", func(b []byte) []byte { b[segHeaderSize+8+6]++; return b }},
		{"block tailMax", func(b []byte) []byte { b[segHeaderSize+16+6]++; return b }},
	} {
		mut := tc.mut(append([]byte(nil), seg...))
		if _, err := BorrowSegment(mut); err == nil {
			t.Errorf("%s: corrupt segment accepted", tc.name)
		}
	}
}

// Acceptance: corrupt compact payloads — framed by a consistent skip
// table, but not what Compact writes — are rejected, not mis-decoded.
func TestDecodeCompactRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       uint32
		payload []byte
	}{
		// Posting 1 ("0.2") stored with prefix 0 and the full suffix;
		// canonical would be prefix 1, suffix {2}.
		{"non-canonical front coding", 2, appendScore(appendUvarints(
			appendScore(appendUvarints(nil, 0, 2, 0, 1), 0.5), 0, 2, 0, 2), 0.25)},
		{"empty identifier", 1, appendScore(appendUvarints(nil, 0, 0), 0.5)},
		{"restart point with prefix", 1, appendScore(appendUvarints(nil, 1, 1, 0), 0.5)},
		{"truncated score", 1, appendScore(appendUvarints(nil, 0, 2, 0, 1), 0.5)[:7]},
	} {
		if _, err := BorrowSegment(oneBlockSegment(tc.n, tc.payload)); err == nil {
			t.Errorf("%s: corrupt segment accepted", tc.name)
		}
	}
}

// oneBlockSegment frames a single-block payload whose first posting
// lies in document 0 and whose scores peak at 0.5.
func oneBlockSegment(n uint32, payload []byte) []byte {
	seg := binary.LittleEndian.AppendUint32(nil, n)
	seg = binary.LittleEndian.AppendUint32(seg, 1)
	seg = binary.LittleEndian.AppendUint32(seg, 0) // payloadOff
	seg = binary.LittleEndian.AppendUint32(seg, 0) // firstDoc
	seg = appendScore(seg, 0.5)                    // maxScore
	seg = appendScore(seg, 0.5)                    // tailMax
	return append(seg, payload...)
}
