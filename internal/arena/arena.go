// Package arena implements the single-file memory-mapped index
// segment: every keyword's block-coded posting list (dil.CompactList
// bytes) in one immutable file behind a fixed superblock and a sorted
// per-keyword offset table, served zero-copy off the OS page cache.
//
// Layout (all integers little-endian; DESIGN.md §17 has the diagram):
//
//	superblock   104 bytes: magic "XARN1", endianness, version,
//	             keyword/posting counts, generation and fingerprint
//	             metadata, TOC location, file length, the number of
//	             element keys the lists index, CRC32C
//	segments     per keyword: the list's bytes + CRC32C (4 bytes)
//	TOC          count uint32, then count × 24-byte entries
//	             {nameOff, nameLen uint32; segOff, segLen uint64},
//	             then the sorted keyword names, then CRC'd by the
//	             superblock's tocCRC field
//
// The TOC is written last but validated first: Open checks the
// superblock and the whole offset table — magic, version, CRCs,
// strictly ascending keyword order, non-overlapping in-bounds
// segments, and that the recorded file length matches the real one
// (any truncation fails cleanly here). Per-keyword segments are
// verified lazily on first access: a CRC pass plus dil.BorrowSegment's
// full structural validation against the stage's element table (the
// keys a list names must lie inside it), after which the CompactList
// serves borrowed bytes with no further checks. A corrupt segment marks only
// its keyword bad (reads as absent, first error retained), mirroring
// the lenient KV load path.
//
// Lifetime: an Arena is refcounted. Open returns it with one owner
// reference; Close drops it and the mapping is released when the count
// drains to zero. Servers tie that owner reference to a generation's
// refcount, making the swap "mmap new file, flip the pointer, munmap
// when the old generation drains".
package arena

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dil"
	"repro/internal/faultinject"
)

// Failpoint names (armed by tests via faultinject.Enable).
const (
	// FPLoad fires at the start of Open — a failing arena file drives
	// the server's fall-back-to-builder path.
	FPLoad = "arena.load"
	// FPMmap fires just before the file is mapped — a failing mmap
	// mid-reload must leave the previous generation serving.
	FPMmap = "arena.mmap"
	// FPWrite fires once per segment in Write, before the segment is
	// written — a disk-full write fails this way part-way through, and
	// must leave the previous file under the final name intact.
	FPWrite = "arena.write"
)

const (
	magic    = "XARN1"
	endianLE = 1
	// Version is the arena format version written and required. Version
	// 2 stores block-coded keyed lists; a version-1 file (front-coded
	// Dewey identifiers) is refused, and a server rebuilds it as it
	// would a stale one.
	Version      = 2
	headerSize   = 104
	tocEntrySize = 24

	// minSegLen is the smallest well-formed segment: an 8-byte header,
	// one 16-byte block entry, a 1-posting payload (a one-score
	// dictionary and >= 3 posting bytes: 12), and the 4-byte CRC.
	minSegLen = 8 + 16 + 12 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded superblock.
type Header struct {
	Version    uint16
	Keywords   uint32
	Postings   uint64
	Generation uint64 // serving generation that wrote the file
	CorpusFP   uint64 // fingerprint of the indexed corpus (shard view)
	GlobalFP   uint64 // fingerprint of the cluster-wide corpus
	ConfigFP   uint64 // fingerprint of strategy + index parameters
	Created    time.Time
	FileLen    uint64
	Keys       uint64 // element keys of the stage the lists index

	tocOff, tocLen uint64
}

func (h Header) appendTo(buf []byte) []byte {
	var b [headerSize]byte
	copy(b[0:5], magic)
	b[5] = endianLE
	binary.LittleEndian.PutUint16(b[6:], h.Version)
	binary.LittleEndian.PutUint32(b[8:], headerSize)
	binary.LittleEndian.PutUint32(b[12:], h.Keywords)
	binary.LittleEndian.PutUint64(b[16:], h.Postings)
	binary.LittleEndian.PutUint64(b[24:], h.Generation)
	binary.LittleEndian.PutUint64(b[32:], h.CorpusFP)
	binary.LittleEndian.PutUint64(b[40:], h.GlobalFP)
	binary.LittleEndian.PutUint64(b[48:], h.ConfigFP)
	binary.LittleEndian.PutUint64(b[56:], h.tocOff)
	binary.LittleEndian.PutUint64(b[64:], h.tocLen)
	binary.LittleEndian.PutUint64(b[72:], uint64(h.Created.Unix()))
	binary.LittleEndian.PutUint64(b[80:], h.FileLen)
	binary.LittleEndian.PutUint64(b[88:], h.Keys)
	// b[96:100] is the tocCRC, patched in by the writer.
	binary.LittleEndian.PutUint32(b[100:], crc32.Checksum(b[:100], crcTable))
	return append(buf, b[:]...)
}

// segment verification states.
const (
	segUnverified int32 = iota
	segOK
	segBad
)

// Arena is one mapped index file. All read methods are safe for
// concurrent use.
type Arena struct {
	path  string
	data  []byte
	unmap func([]byte) error
	hdr   Header

	entries []byte // TOC entry table (count × tocEntrySize)
	names   []byte // sorted keyword names heap
	count   int

	ids dil.IDs // the stage's element table: resolves the lists' keys

	refs   atomic.Int64
	closed atomic.Bool

	states []atomic.Int32
	lists  []atomic.Pointer[dil.CompactList]

	mu  sync.Mutex
	err error // first per-segment verification failure
}

// Open maps path, validates the superblock and offset table, and
// checks that the lists index as many element keys as ids resolves —
// the table of the stage the arena serves, which its lists' keys name
// elements of. The returned arena holds one owner reference; release
// it with Close.
func Open(path string, ids dil.IDs) (*Arena, error) {
	a, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if err := a.bind(ids); err != nil {
		a.Close()
		return nil, fmt.Errorf("arena: %s: %w", path, err)
	}
	return a, nil
}

// mapFile maps path and validates the superblock and offset table.
func mapFile(path string) (*Arena, error) {
	if err := faultinject.Hit(FPLoad); err != nil {
		return nil, fmt.Errorf("arena: open %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerSize {
		return nil, fmt.Errorf("arena: %s: %d bytes is smaller than the superblock", path, st.Size())
	}
	if st.Size() > math.MaxInt {
		return nil, fmt.Errorf("arena: %s: file too large to map", path)
	}
	if err := faultinject.Hit(FPMmap); err != nil {
		return nil, fmt.Errorf("arena: mmap %s: %w", path, err)
	}
	data, unmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("arena: mmap %s: %w", path, err)
	}
	a, err := newArena(data, unmap)
	if err != nil {
		unmap(data)
		return nil, fmt.Errorf("arena: %s: %w", path, err)
	}
	a.path = path
	return a, nil
}

// FromBytes builds an arena over an in-memory image (no file, no
// mapping) — the fuzz target and tests use it to drive the exact
// validation path Open runs.
func FromBytes(data []byte, ids dil.IDs) (*Arena, error) {
	a, err := newArena(data, nil)
	if err != nil {
		return nil, err
	}
	if err := a.bind(ids); err != nil {
		return nil, err
	}
	return a, nil
}

// bind installs the element table the arena's lists resolve through.
func (a *Arena) bind(ids dil.IDs) error {
	if uint64(ids.Len()) != a.hdr.Keys {
		return fmt.Errorf("lists index %d element keys, the stage has %d (stale arena?)", a.hdr.Keys, ids.Len())
	}
	a.ids = ids
	return nil
}

func newArena(data []byte, unmap func([]byte) error) (*Arena, error) {
	hdr, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	entries, names, err := parseTOC(data, hdr)
	if err != nil {
		return nil, err
	}
	a := &Arena{
		data:    data,
		unmap:   unmap,
		hdr:     hdr,
		entries: entries,
		names:   names,
		count:   int(hdr.Keywords),
		states:  make([]atomic.Int32, hdr.Keywords),
		lists:   make([]atomic.Pointer[dil.CompactList], hdr.Keywords),
	}
	a.refs.Store(1)
	return a, nil
}

func parseHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < headerSize {
		return h, fmt.Errorf("superblock truncated (%d bytes)", len(data))
	}
	if string(data[0:5]) != magic {
		return h, fmt.Errorf("bad magic %q", data[0:5])
	}
	if data[5] != endianLE {
		return h, fmt.Errorf("unsupported endianness marker %d", data[5])
	}
	// The version decides where the CRC sits, so it is read first: a
	// file of another version is refused as such.
	h.Version = binary.LittleEndian.Uint16(data[6:])
	if h.Version != Version {
		return h, fmt.Errorf("unsupported format version %d (want %d)", h.Version, Version)
	}
	if got := binary.LittleEndian.Uint32(data[100:]); got != crc32.Checksum(data[:100], crcTable) {
		return h, fmt.Errorf("superblock CRC mismatch")
	}
	if hl := binary.LittleEndian.Uint32(data[8:]); hl != headerSize {
		return h, fmt.Errorf("unsupported superblock length %d", hl)
	}
	h.Keywords = binary.LittleEndian.Uint32(data[12:])
	h.Postings = binary.LittleEndian.Uint64(data[16:])
	h.Generation = binary.LittleEndian.Uint64(data[24:])
	h.CorpusFP = binary.LittleEndian.Uint64(data[32:])
	h.GlobalFP = binary.LittleEndian.Uint64(data[40:])
	h.ConfigFP = binary.LittleEndian.Uint64(data[48:])
	h.tocOff = binary.LittleEndian.Uint64(data[56:])
	h.tocLen = binary.LittleEndian.Uint64(data[64:])
	h.Created = time.Unix(int64(binary.LittleEndian.Uint64(data[72:])), 0)
	h.FileLen = binary.LittleEndian.Uint64(data[80:])
	h.Keys = binary.LittleEndian.Uint64(data[88:])
	if h.FileLen != uint64(len(data)) {
		return h, fmt.Errorf("file is %d bytes, superblock records %d (truncated or grown)", len(data), h.FileLen)
	}
	if h.tocOff < headerSize || h.tocOff+h.tocLen != h.FileLen {
		return h, fmt.Errorf("offset table [%d,+%d) does not end the %d-byte file", h.tocOff, h.tocLen, h.FileLen)
	}
	return h, nil
}

func parseTOC(data []byte, h Header) (entries, names []byte, err error) {
	toc := data[h.tocOff:h.FileLen]
	if got := binary.LittleEndian.Uint32(data[96:]); got != crc32.Checksum(toc, crcTable) {
		return nil, nil, fmt.Errorf("offset table CRC mismatch")
	}
	if len(toc) < 4 {
		return nil, nil, fmt.Errorf("offset table truncated")
	}
	count := binary.LittleEndian.Uint32(toc[0:])
	if count != h.Keywords {
		return nil, nil, fmt.Errorf("offset table has %d entries, superblock records %d keywords", count, h.Keywords)
	}
	need := 4 + uint64(count)*tocEntrySize
	if uint64(len(toc)) < need {
		return nil, nil, fmt.Errorf("offset table truncated (%d bytes for %d entries)", len(toc), count)
	}
	entries = toc[4:need]
	names = toc[need:]
	var prevName []byte
	prevEnd := uint64(headerSize)
	for i := 0; i < int(count); i++ {
		e := entries[i*tocEntrySize:]
		nameOff := binary.LittleEndian.Uint32(e[0:])
		nameLen := binary.LittleEndian.Uint32(e[4:])
		segOff := binary.LittleEndian.Uint64(e[8:])
		segLen := binary.LittleEndian.Uint64(e[16:])
		if nameLen == 0 || uint64(nameOff)+uint64(nameLen) > uint64(len(names)) {
			return nil, nil, fmt.Errorf("entry %d: keyword name [%d,+%d) out of bounds", i, nameOff, nameLen)
		}
		name := names[nameOff : nameOff+nameLen]
		if prevName != nil && string(prevName) >= string(name) {
			return nil, nil, fmt.Errorf("entry %d: keyword order violation (%q then %q)", i, prevName, name)
		}
		if segLen < minSegLen {
			return nil, nil, fmt.Errorf("entry %d: segment length %d below minimum", i, segLen)
		}
		if segOff < prevEnd || segOff+segLen < segOff || segOff+segLen > h.tocOff {
			return nil, nil, fmt.Errorf("entry %d: segment [%d,+%d) overlaps or out of bounds", i, segOff, segLen)
		}
		prevName, prevEnd = name, segOff+segLen
	}
	return entries, names, nil
}

// entryAt returns TOC entry i's keyword bytes and segment range.
func (a *Arena) entryAt(i int) (name []byte, segOff, segLen uint64) {
	e := a.entries[i*tocEntrySize:]
	nameOff := binary.LittleEndian.Uint32(e[0:])
	nameLen := binary.LittleEndian.Uint32(e[4:])
	return a.names[nameOff : nameOff+nameLen],
		binary.LittleEndian.Uint64(e[8:]),
		binary.LittleEndian.Uint64(e[16:])
}

// find binary-searches the sorted offset table for kw; -1 if absent.
func (a *Arena) find(kw string) int {
	lo, hi := 0, a.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		name, _, _ := a.entryAt(mid)
		if string(name) < kw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < a.count {
		if name, _, _ := a.entryAt(lo); string(name) == kw {
			return lo
		}
	}
	return -1
}

// Compact returns kw's posting list served zero-copy out of the
// mapped region, or nil if the keyword is absent or its segment fails
// verification (first failure retained by Err). The returned list is
// valid only while the arena stays referenced.
func (a *Arena) Compact(kw string) *dil.CompactList {
	i := a.find(kw)
	if i < 0 {
		return nil
	}
	return a.compactAt(i)
}

func (a *Arena) compactAt(i int) *dil.CompactList {
	if cl := a.lists[i].Load(); cl != nil {
		return cl
	}
	if a.states[i].Load() == segBad {
		return nil
	}
	body, err := a.segment(i)
	var cl *dil.CompactList
	if err == nil {
		cl, err = dil.BorrowSegment(body, a.ids)
	}
	if err != nil {
		name, _, _ := a.entryAt(i)
		a.fail(i, fmt.Errorf("arena: keyword %q: %w", name, err))
		return nil
	}
	// Concurrent first readers may both verify; either result is a view
	// of the same immutable bytes.
	a.lists[i].Store(cl)
	a.states[i].Store(segOK)
	return cl
}

// segment returns keyword i's list bytes once their CRC checks out.
func (a *Arena) segment(i int) ([]byte, error) {
	_, segOff, segLen := a.entryAt(i)
	seg := a.data[segOff : segOff+segLen]
	body := seg[:len(seg)-4]
	if got := binary.LittleEndian.Uint32(seg[len(seg)-4:]); got != crc32.Checksum(body, crcTable) {
		return nil, fmt.Errorf("segment CRC mismatch")
	}
	return body, nil
}

func (a *Arena) fail(i int, err error) {
	a.states[i].Store(segBad)
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

// Has reports whether kw is present in the offset table.
func (a *Arena) Has(kw string) bool { return a.find(kw) >= 0 }

// Keywords returns every keyword in sorted order (allocates; meant for
// tooling, not the query path).
func (a *Arena) Keywords() []string {
	out := make([]string, a.count)
	for i := range out {
		name, _, _ := a.entryAt(i)
		out[i] = string(name)
	}
	return out
}

// Len returns the keyword count.
func (a *Arena) Len() int { return a.count }

// Header returns the decoded superblock.
func (a *Arena) Header() Header { return a.hdr }

// Generation returns the serving generation recorded at write time.
func (a *Arena) Generation() uint64 { return a.hdr.Generation }

// Postings returns the total posting count recorded in the superblock.
func (a *Arena) Postings() uint64 { return a.hdr.Postings }

// MappedBytes returns the size of the mapped region.
func (a *Arena) MappedBytes() int { return len(a.data) }

// Path returns the file the arena was opened from ("" for FromBytes).
func (a *Arena) Path() string { return a.path }

// Err returns the first per-segment verification failure, if any.
func (a *Arena) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Acquire takes an additional reference; false means the arena has
// already drained (the mapping is gone — do not touch it).
func (a *Arena) Acquire() bool {
	for {
		n := a.refs.Load()
		if n <= 0 {
			return false
		}
		if a.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference; the mapping is released when the count
// drains to zero.
func (a *Arena) Release() {
	if a.refs.Add(-1) == 0 {
		if a.unmap != nil {
			a.unmap(a.data)
		}
		a.data, a.entries, a.names = nil, nil, nil
		for i := range a.lists {
			a.lists[i].Store(nil)
		}
	}
}

// Close drops the owner reference taken by Open. Idempotent.
func (a *Arena) Close() error {
	if a.closed.CompareAndSwap(false, true) {
		a.Release()
	}
	return nil
}

// Mapped reports whether the region is still mapped (references
// remain). Tests use it to assert the munmap-after-drain lifecycle.
func (a *Arena) Mapped() bool { return a.refs.Load() > 0 }
