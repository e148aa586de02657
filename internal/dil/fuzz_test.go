package dil

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzBorrowSegment drives BorrowSegment's structural validation
// directly: in an arena file every segment sits behind a CRC32C, so
// mutations there almost never reach it, yet it is what makes the
// cursor's unvalidated borrowed decode safe. An accepted segment must
// re-encode bit-identically, and a full cursor walk over it must not
// panic.
func FuzzBorrowSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(Compact(keyed([]Entry{{ID: xmltree.Dewey{0}, Score: 1}})).AppendSegment(nil))
	f.Add(Compact(keyed([]Entry{
		{ID: xmltree.Dewey{0, 1}, Score: 0.5},
		{ID: xmltree.Dewey{0, 1, 3}, Score: 0.25},
		{ID: xmltree.Dewey{2}, Score: 1},
	})).AppendSegment(nil))
	long := make([]Entry, BlockSize+5)
	for i := range long {
		long[i] = Entry{ID: xmltree.Dewey{int32(i / 8), int32(i % 8)}, Score: float64(i%7) / 7}
	}
	f.Add(Compact(keyed(long)).AppendSegment(nil))
	f.Fuzz(func(t *testing.T, seg []byte) {
		c, err := BorrowSegment(seg)
		if err != nil {
			return
		}
		if got := c.AppendSegment(nil); !bytes.Equal(got, seg) {
			t.Fatalf("borrowed re-encode mismatch: %x vs %x", got, seg)
		}
		l := c.Entries()
		if got := Compact(keyed(l)).AppendSegment(nil); !bytes.Equal(got, seg) {
			t.Fatalf("Entries round-trip mismatch: %x vs %x", got, seg)
		}
		cu := NewCursor(c)
		n := 0
		for ; cu.Valid(); cu.Advance() {
			if n == len(l) {
				t.Fatalf("cursor walks past the %d postings of Entries", n)
			}
			if !cu.Cur().Equal(l[n].ID) || cu.Score() != l[n].Score {
				t.Fatalf("cursor posting %d: %v/%v, Entries has %v/%v",
					n, cu.Cur(), cu.Score(), l[n].ID, l[n].Score)
			}
			_ = cu.RemainingMax()
			n++
		}
		if n != len(l) {
			t.Fatalf("cursor walked %d postings, Entries has %d", n, len(l))
		}
		for cu = NewCursor(c); cu.Valid(); {
			cu.Run()
		}
	})
}
