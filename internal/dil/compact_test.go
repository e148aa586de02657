package dil

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmltree"
)

// Entry is a posting resolved to its element's Dewey identifier: the
// form these tests state lists in.
type Entry struct {
	ID    xmltree.Dewey
	Score float64
}

// Entries resolves a list to its Dewey form.
func (t IDs) Entries(l List) []Entry {
	out := make([]Entry, len(l))
	for i, p := range l {
		out[i] = Entry{ID: t.ID(p.Key), Score: p.Score}
	}
	return out
}

// Entries decodes the list to its Dewey form (nil for a nil list).
func (c *CompactList) Entries() []Entry {
	if c.Len() == 0 {
		return nil
	}
	var l List
	for cu := NewCursor(c); cu.Valid(); {
		run, _ := cu.Run()
		l = append(l, run...)
	}
	return c.ids.Entries(l)
}

// Cur returns the current posting's Dewey identifier.
func (cu *Cursor) Cur() xmltree.Dewey { return cu.cl.ids.ID(cu.key) }

// keyed keys a Dewey-ordered entry list by position, with its
// identifiers as the table: hand-built postings in the form a builder
// emits, for the codec, which reads no tree shape (the table has none;
// NewKeys would want every ancestor).
func keyed(es []Entry) (List, IDs) {
	l := make(List, len(es))
	ids := make([]xmltree.Dewey, len(es))
	for i, e := range es {
		l[i], ids[i] = Posting{Key: int32(i), Doc: e.ID[0], Score: e.Score}, e.ID
	}
	return l, IDs{Base: &Keys{ids: ids}}
}

// sortEntries orders entries by Dewey identifier.
func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return a.ID.Compare(b.ID) })
}

// randomList builds a sorted list of n postings over docs documents
// with random ragged Dewey identifiers, including duplicates.
func randomList(rng *rand.Rand, n, docs, maxDepth int) []Entry {
	l := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		depth := 1 + rng.Intn(maxDepth)
		id := make(xmltree.Dewey, depth)
		id[0] = int32(rng.Intn(docs))
		for j := 1; j < depth; j++ {
			id[j] = int32(rng.Intn(4))
		}
		l = append(l, Entry{ID: id, Score: rng.Float64()})
		if rng.Intn(8) == 0 { // duplicate identifier, distinct score
			l = append(l, Entry{ID: id.Clone(), Score: rng.Float64()})
		}
	}
	sortEntries(l)
	return l
}

func listsEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].ID.Equal(b[i].ID) || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// Acceptance: Compact is lossless — Entries() reproduces the original
// postings exactly, across sizes spanning multiple blocks.
func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		l := randomList(rng, n, 20, 8)
		c := Compact(keyed(l))
		if c.Len() != len(l) {
			t.Fatalf("n=%d: Len = %d, want %d", n, c.Len(), len(l))
		}
		if want := (len(l) + BlockSize - 1) / BlockSize; c.Blocks() != want {
			t.Fatalf("n=%d: Blocks = %d, want %d", n, c.Blocks(), want)
		}
		if !listsEqual(c.Entries(), l) {
			t.Fatalf("n=%d: Entries() does not reproduce the original", n)
		}
	}
}

func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = appendUvarint(buf, v)
	}
	return buf
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func appendScore(buf []byte, s float64) []byte {
	bits := math.Float64bits(s)
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(bits>>(8*i)))
	}
	return buf
}

// Acceptance: a cursor streams the list, and SeekDoc lands on the first posting of the target document — or the
// next document when the target is absent — while skipping blocks.
func TestCursorSeekDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Sparse docs so some SeekDoc targets are absent.
	l := make([]Entry, 0, 6*BlockSize)
	for doc := int32(0); doc < 200; doc += 2 {
		for j := 0; j < 4; j++ {
			l = append(l, Entry{
				ID:    xmltree.Dewey{doc, int32(j), int32(rng.Intn(3))},
				Score: rng.Float64(),
			})
		}
	}
	sortEntries(l)
	c := Compact(keyed(l))

	// Full sequential walk reproduces the list.
	cu := NewCursor(c)
	for i := 0; cu.Valid(); i++ {
		if !cu.Cur().Equal(l[i].ID) || cu.Score() != l[i].Score {
			t.Fatalf("posting %d = (%v, %v), want (%v, %v)",
				i, cu.Cur(), cu.Score(), l[i].ID, l[i].Score)
		}
		cu.Advance()
	}

	for _, target := range []int32{0, 1, 2, 77, 100, 198, 199, 500} {
		cu := NewCursor(c)
		ok := cu.SeekDoc(target)
		// Reference: linear scan.
		want := -1
		for i, p := range l {
			if p.ID[0] >= target {
				want = i
				break
			}
		}
		if (want >= 0) != ok {
			t.Fatalf("SeekDoc(%d) ok = %v, want %v", target, ok, want >= 0)
		}
		if ok && !cu.Cur().Equal(l[want].ID) {
			t.Fatalf("SeekDoc(%d) landed on %v, want %v", target, cu.Cur(), l[want].ID)
		}
	}

	// Seeks never move backwards.
	cu = NewCursor(c)
	cu.SeekDoc(100)
	at := cu.Cur().Clone()
	cu.SeekDoc(10)
	if !cu.Cur().Equal(at) {
		t.Fatalf("SeekDoc moved backwards to %v", cu.Cur())
	}

	// A long forward jump must bypass whole blocks without decoding
	// them.
	cu = NewCursor(c)
	if !cu.SeekDoc(198) {
		t.Fatal("SeekDoc(198) exhausted")
	}
	if cu.BlocksSkipped() == 0 {
		t.Errorf("BlocksSkipped = 0 after jumping %d blocks of postings", c.Blocks())
	}
}

// Regression: a document whose postings straddle a block boundary. The
// boundary block's firstDoc equals the seek target, so a seek that
// jumps to the last block with firstDoc <= target would overshoot the
// run's first postings at the tail of the previous block.
func TestCursorSeekDocRunStraddlesBlock(t *testing.T) {
	l := make([]Entry, 0, 2*BlockSize)
	// Docs 0..BlockSize-3 with one posting each, then doc 1000 with
	// postings from index BlockSize-2 through the next block.
	for doc := int32(0); doc < int32(BlockSize)-2; doc++ {
		l = append(l, Entry{ID: xmltree.Dewey{doc, 0}, Score: 1})
	}
	for j := int32(0); j < 10; j++ {
		l = append(l, Entry{ID: xmltree.Dewey{1000, j}, Score: 1})
	}
	c := Compact(keyed(l))
	if c.Blocks() < 2 {
		t.Fatalf("want >= 2 blocks, got %d", c.Blocks())
	}
	cu := NewCursor(c)
	if !cu.SeekDoc(1000) {
		t.Fatal("SeekDoc(1000) exhausted")
	}
	if want := (xmltree.Dewey{1000, 0}); !cu.Cur().Equal(want) {
		t.Fatalf("SeekDoc(1000) landed on %v, want %v", cu.Cur(), want)
	}
}

// Acceptance: a list's scores come back bit for bit, whatever they
// are — signed zeros, NaN and infinities included — and a block may
// hold as many distinct scores as postings.
func TestCompactScoresBitExact(t *testing.T) {
	odd := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	l := make(List, 0, 2*BlockSize+1)
	for i := 0; i < cap(l); i++ {
		s := float64(i) / 7 // 2*BlockSize+1 distinct scores
		if i%9 == 0 {
			s = odd[(i/9)%len(odd)]
		}
		l = append(l, Posting{Key: int32(3 * i), Doc: int32(i / 5), Score: s})
	}
	c := Compact(l, IDs{Base: &Keys{ids: make([]xmltree.Dewey, 3*len(l))}})
	cu := NewCursor(c)
	for i, p := range l {
		if !cu.Valid() || cu.key != p.Key || cu.DocID() != p.Doc || math.Float64bits(cu.Score()) != math.Float64bits(p.Score) {
			t.Fatalf("posting %d: (%d, %d, %v), want (%d, %d, %v)", i, cu.key, cu.DocID(), cu.Score(), p.Key, p.Doc, p.Score)
		}
		cu.Advance()
	}
	if cu.Valid() {
		t.Fatal("cursor has postings past the list")
	}
}

// Acceptance (satellite): RemainingMax is one table read, and the
// value it reads is the brute-force maximum over every posting from
// the start of the cursor's block to the end of the list — at every
// position of a multi-block list, so it also bounds the suffix from
// the cursor on.
func TestRemainingMaxIsBlockSuffixMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomList(rng, 5*BlockSize+9, 40, 4)
	c := Compact(keyed(l))
	cu := NewCursor(c)
	for i := 0; cu.Valid(); i++ {
		want := l[i-i%BlockSize].Score
		for _, p := range l[i-i%BlockSize:] {
			if p.Score > want {
				want = p.Score
			}
		}
		if got := cu.RemainingMax(); got != want {
			t.Fatalf("position %d: RemainingMax = %v, want %v", i, got, want)
		}
		cu.Advance()
	}
	if cu.RemainingMax() != 0 {
		t.Fatal("a drained cursor must bound at 0")
	}
}
