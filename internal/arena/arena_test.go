package arena

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/xmltree"
)

// testTable is the element table every test list's keys index: 16
// documents of at least 64 elements each, every element's ancestors
// included, in Dewey order as a stage numbers them.
var testTable = func() []xmltree.Dewey {
	rng := rand.New(rand.NewSource(99))
	var table []xmltree.Dewey
	for doc := int32(0); doc < 16; doc++ {
		els := []xmltree.Dewey{{doc}}
		for len(els) < 64 {
			id := make(xmltree.Dewey, 2+rng.Intn(5))
			id[0] = doc
			for j := 1; j < len(id); j++ {
				id[j] = int32(rng.Intn(4))
			}
			for n := 2; n <= len(id); n++ {
				els = append(els, id[:n])
			}
		}
		slices.SortFunc(els, func(a, b xmltree.Dewey) int { return a.Compare(b) })
		table = append(table, slices.CompactFunc(els, xmltree.Dewey.Equal)...)
	}
	return table
}()

// testIDs resolves testTable's keys.
var testIDs = dil.IDs{Base: dil.NewKeys(slices.Clone(testTable))}

// testKeys is testIDs' size, recorded in every test arena.
var testKeys = uint64(testIDs.Len())

// randomIndex builds kws keyword lists of up to maxN postings each,
// keyed into testIDs.
func randomIndex(seed int64, kws, maxN int) *dil.Index {
	rng := rand.New(rand.NewSource(seed))
	ix := dil.NewIndex()
	for k := 0; k < kws; k++ {
		keys := make([]int32, 1+rng.Intn(maxN))
		for i := range keys {
			keys[i] = int32(rng.Intn(testIDs.Len()))
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		l := make(dil.List, len(keys))
		for i, key := range keys {
			l[i] = dil.Posting{Key: key, Doc: testIDs.ID(key)[0], Score: rng.Float64()}
		}
		ix.Set(kwName(k), dil.Compact(l, testIDs))
	}
	return ix
}

func kwName(k int) string {
	return string(rune('a'+k%26)) + string(rune('a'+(k/26)%26)) + "kw"
}

func writeArena(t *testing.T, ix *dil.Index, meta Meta) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test"+Ext)
	if err := Write(path, ix, meta); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

// Acceptance: a written arena opens, records its metadata, and serves
// every keyword's postings identical to the in-memory index.
func TestArenaRoundTrip(t *testing.T) {
	ix := randomIndex(1, 40, 400)
	meta := Meta{Keys: testKeys, Generation: 7, CorpusFP: 11, GlobalFP: 13, ConfigFP: 17}
	path := writeArena(t, ix, meta)
	a, err := Open(path, testIDs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	h := a.Header()
	if h.Generation != 7 || h.CorpusFP != 11 || h.GlobalFP != 13 || h.ConfigFP != 17 {
		t.Fatalf("metadata mismatch: %+v", h)
	}
	kws := ix.Keywords()
	if a.Len() != len(kws) {
		t.Fatalf("arena has %d keywords, index %d", a.Len(), len(kws))
	}
	if got := a.Keywords(); !sort.StringsAreSorted(got) {
		t.Fatal("arena keywords not sorted")
	}
	var postings uint64
	for _, kw := range kws {
		cl := a.Compact(kw)
		if cl == nil {
			t.Fatalf("keyword %q absent from arena (err %v)", kw, a.Err())
		}
		want := postingsOf(ix.Compact(kw))
		got := postingsOf(cl)
		if !slices.Equal(got, want) {
			t.Fatalf("keyword %q: postings differ", kw)
		}
		postings += uint64(len(want))
	}
	if a.Postings() != postings {
		t.Fatalf("superblock postings %d, want %d", a.Postings(), postings)
	}
	if a.Compact("no-such-keyword") != nil || a.Has("no-such-keyword") {
		t.Fatal("absent keyword resolved")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("spurious arena error: %v", err)
	}
	if _, err := Verify(path, nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// Acceptance: an arena whose lists index another element table — a
// different stage, or a file of the front-coded version 1 — is refused
// at open, before any key is resolved.
func TestOpenRefusesOtherTable(t *testing.T) {
	path := writeArena(t, randomIndex(3, 4, 50), Meta{Keys: testKeys})
	short := dil.IDs{Base: dil.NewKeys(slices.Clone(testTable[:len(testTable)-1]))}
	if a, err := Open(path, short); err == nil {
		a.Close()
		t.Fatal("arena opened against a table of another size")
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(img[6:], 1)
	if _, err := FromBytes(img, testIDs); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 superblock: err = %v, want an unsupported-version refusal", err)
	}
}

// Acceptance: the refcount drains the mapping exactly once, and
// Acquire after drain refuses.
func TestArenaRefcount(t *testing.T) {
	path := writeArena(t, randomIndex(2, 4, 50), Meta{Keys: testKeys})
	a, err := Open(path, testIDs)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Acquire() {
		t.Fatal("Acquire on live arena failed")
	}
	a.Close()
	a.Close() // idempotent
	if !a.Mapped() {
		t.Fatal("arena unmapped while a reference remains")
	}
	if a.Compact(a.Keywords()[0]) == nil {
		t.Fatal("held reference cannot read")
	}
	a.Release()
	if a.Mapped() {
		t.Fatal("arena still mapped after drain")
	}
	if a.Acquire() {
		t.Fatal("Acquire on drained arena succeeded")
	}
}

// Acceptance: a flipped byte anywhere in a segment makes only that
// keyword read as absent, with the first error retained; flipped TOC
// or superblock bytes fail Open outright.
func TestArenaCorruption(t *testing.T) {
	ix := randomIndex(3, 6, 200)
	path := writeArena(t, ix, Meta{Keys: testKeys})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Superblock corruption: flip one byte in the first 96.
	for _, off := range []int{0, 5, 6, 13, 60, 90, 95} {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0xff
		if _, err := FromBytes(mut, testIDs); err == nil {
			t.Errorf("superblock byte %d flipped: still opened", off)
		}
	}

	// Segment corruption: flip a byte inside the first segment's range.
	a, err := FromBytes(img, testIDs)
	if err != nil {
		t.Fatal(err)
	}
	_, segOff, _ := a.entryAt(0)
	first := a.Keywords()[0]
	other := a.Keywords()[1]
	a.Close()

	mut := append([]byte(nil), img...)
	mut[segOff+4] ^= 0xff
	b, err := FromBytes(mut, testIDs)
	if err != nil {
		t.Fatalf("segment corruption must not fail Open: %v", err)
	}
	defer b.Close()
	if b.Compact(first) != nil {
		t.Fatal("corrupt segment served")
	}
	if b.Err() == nil {
		t.Fatal("corrupt segment left no error")
	}
	if b.Compact(other) == nil {
		t.Fatal("healthy keyword poisoned by sibling corruption")
	}

	// TOC corruption: flip a byte in the offset table.
	tocOff := len(img) - 10
	mut = append([]byte(nil), img...)
	mut[tocOff] ^= 0xff
	if _, err := FromBytes(mut, testIDs); err == nil {
		t.Error("TOC corruption not detected at open")
	}
}

// Acceptance (crash soak): truncating the file at every byte boundary
// either fails Open cleanly or — never — panics or serves bad data.
// The superblock's recorded file length makes every truncation
// detectable, so every prefix must fail.
func TestArenaCrashSoakTruncation(t *testing.T) {
	ix := randomIndex(4, 3, 60)
	path := writeArena(t, ix, Meta{Keys: testKeys})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	trunc := filepath.Join(dir, "trunc"+Ext)
	for n := 0; n < len(img); n++ {
		if err := os.WriteFile(trunc, img[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := Open(trunc, testIDs)
		if err == nil {
			a.Close()
			t.Fatalf("truncation to %d/%d bytes opened successfully", n, len(img))
		}
	}
	// And the untouched image still opens.
	if err := os.WriteFile(trunc, img, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(trunc, testIDs)
	if err != nil {
		t.Fatalf("full image failed to open: %v", err)
	}
	a.Close()
}

// Acceptance: stray temp arenas from crashed writes are removed,
// finished arenas are not.
func TestCleanupStray(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x"+Ext)
	if err := Write(path, randomIndex(5, 2, 30), Meta{Keys: testKeys}); err != nil {
		t.Fatal(err)
	}
	stray := path + tmpSuffix
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed := CleanupStray(dir)
	if len(removed) != 1 || removed[0] != filepath.Base(stray) {
		t.Fatalf("CleanupStray removed %v", removed)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp survived cleanup")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("finished arena removed by cleanup")
	}
	if CleanupStray(filepath.Join(dir, "missing")) != nil {
		t.Fatal("cleanup of missing dir reported removals")
	}
}

// Acceptance: the arena.load and arena.mmap failpoints fail Open with
// their injected error (the server's lenient-load path depends on it).
func TestArenaFailpoints(t *testing.T) {
	path := writeArena(t, randomIndex(6, 2, 30), Meta{Keys: testKeys})
	for _, fp := range []string{FPLoad, FPMmap} {
		boom := errors.New("boom:" + fp)
		faultinject.Enable(fp, faultinject.Spec{Mode: faultinject.ModeError, Err: boom})
		_, err := Open(path, testIDs)
		faultinject.Disable(fp)
		if !errors.Is(err, boom) {
			t.Fatalf("failpoint %s: Open err = %v, want %v", fp, err, boom)
		}
	}
	a, err := Open(path, testIDs)
	if err != nil {
		t.Fatalf("Open after failpoints disarmed: %v", err)
	}
	a.Close()
}

// Acceptance: a write that fails part-way — here at its second
// segment, as a full disk would fail it — leaves the previous
// generation under the final name, openable and intact, and leaves no
// temp file behind.
func TestWriteFailureKeepsPreviousArena(t *testing.T) {
	defer faultinject.DisableAll()
	path := writeArena(t, randomIndex(7, 6, 200), Meta{Keys: testKeys, Generation: 1})

	boom := errors.New("disk full")
	faultinject.Enable(FPWrite, faultinject.Spec{After: 1, Count: 1, Mode: faultinject.ModeError, Err: boom})
	err := Write(path, randomIndex(8, 6, 200), Meta{Keys: testKeys, Generation: 2})
	faultinject.Disable(FPWrite)
	if !errors.Is(err, boom) {
		t.Fatalf("generation-2 Write err = %v, want %v", err, boom)
	}

	a, err := Open(path, testIDs)
	if err != nil {
		t.Fatalf("previous arena does not open after the failed write: %v", err)
	}
	gen := a.Generation()
	a.Close()
	if gen != 1 {
		t.Fatalf("arena generation = %d after the failed write, want 1", gen)
	}
	if _, err := Verify(path, nil); err != nil {
		t.Fatalf("previous arena fails Verify: %v", err)
	}
	if _, err := os.Stat(path + tmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// postingsOf decodes a list's postings.
func postingsOf(c *dil.CompactList) dil.List {
	var out dil.List
	for cu := dil.NewCursor(c); cu.Valid(); {
		run, _ := cu.Run()
		out = append(out, run...)
	}
	return out
}
