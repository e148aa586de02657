package dil

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBorrowSegment drives the segment validation directly: in an
// arena file every segment sits behind a CRC32C, so mutations there
// almost never reach it, yet it is what makes the cursor's unchecked
// decode safe. Keys are bounded by int32 alone (the fuzzer has no
// stage table to resolve them), so the cursor's keys, documents and
// score bits are checked instead of identifiers. An accepted segment
// must re-encode bit-identically from the postings a cursor walk
// decodes, and a walk by SeekDoc must not panic or land short.
func FuzzBorrowSegment(f *testing.F) {
	seed := func(l List) { f.Add(Compact(l, IDs{}).AppendSegment(nil)) }
	f.Add([]byte{})
	seed(List{{Key: 0, Doc: 0, Score: 1}})
	seed(List{{Key: 1, Doc: 0, Score: 0.5}, {Key: 2, Doc: 0, Score: 0.25}, {Key: 9, Doc: 2, Score: 1}})
	// 128 distinct scores in one block, and a one-posting tail block.
	distinct := make(List, BlockSize+1)
	for i := range distinct {
		distinct[i] = Posting{Key: int32(i), Doc: int32(i / 8), Score: float64(i) / 3}
	}
	seed(distinct)
	// Key deltas of 2^21 and more: four- and five-byte varints.
	seed(List{{Key: 3, Doc: 0, Score: 1}, {Key: 3 + 1<<21, Doc: 1 << 20, Score: 2}, {Key: math.MaxInt32, Doc: math.MaxInt32, Score: 2}})
	// Scores that must come back bit for bit.
	seed(List{
		{Key: 0, Doc: 0, Score: math.Copysign(0, -1)},
		{Key: 1, Doc: 0, Score: 0},
		{Key: 2, Doc: 1, Score: math.NaN()},
		{Key: 3, Doc: 1, Score: math.Inf(1)},
	})
	f.Fuzz(func(t *testing.T, seg []byte) {
		c, err := borrow(seg, IDs{}, math.MaxInt32)
		if err != nil {
			return
		}
		l := make(List, 0, c.Len())
		for cu := NewCursor(c); cu.Valid(); cu.Advance() {
			if len(l) == c.Len() {
				t.Fatalf("cursor walks past the %d postings", c.Len())
			}
			l = append(l, Posting{Key: cu.key, Doc: cu.DocID(), Score: cu.Score()})
			_ = cu.RemainingMax()
		}
		if len(l) != c.Len() {
			t.Fatalf("cursor walked %d postings of %d", len(l), c.Len())
		}
		if got := Compact(l, IDs{}).AppendSegment(nil); !bytes.Equal(got, seg) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, seg)
		}
		for cu, doc := NewCursor(c), int32(0); cu.SeekDoc(doc); doc += 3 {
			if cu.DocID() < doc {
				t.Fatalf("SeekDoc(%d) landed on document %d", doc, cu.DocID())
			}
		}
	})
}
