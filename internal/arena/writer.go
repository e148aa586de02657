package arena

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dil"
	"repro/internal/faultinject"
)

// tmpSuffix marks in-flight arena writes; CleanupStray removes
// leftovers from crashes.
const tmpSuffix = ".tmp"

// Meta is the identity stamped into the superblock so readers can
// detect a stale or foreign arena before serving from it.
type Meta struct {
	// Generation is the serving generation materializing the file.
	Generation uint64
	// CorpusFP fingerprints the corpus (or shard view) the index was
	// built over.
	CorpusFP uint64
	// GlobalFP fingerprints the cluster-wide corpus the scoring
	// statistics were computed over (equals CorpusFP single-node).
	GlobalFP uint64
	// ConfigFP fingerprints the strategy and index parameters.
	ConfigFP uint64
	// Keys is the element count of the stage whose keys the lists name
	// (dil.IDs.Len); Open refuses a table of another size.
	Keys uint64
}

// Write materializes ix as a single arena file at path, atomically:
// the image is streamed to path+".tmp", fsync'd, its directory entry
// fsync'd, renamed over path, and the directory fsync'd again — a
// reader never observes a partial file under the final name.
func Write(path string, ix *dil.Index, meta Meta) error {
	keywords := ix.Keywords() // sorted
	if !sort.StringsAreSorted(keywords) {
		sort.Strings(keywords)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Best-effort removal of the temp on any failure below.
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(tmp)
		}
	}()

	w := bufio.NewWriterSize(f, 1<<20)
	// Placeholder superblock; patched via WriteAt once offsets are known.
	if _, err := w.Write(make([]byte, headerSize)); err != nil {
		return err
	}

	type entry struct {
		nameOff, nameLen uint32
		segOff, segLen   uint64
	}
	entries := make([]entry, 0, len(keywords))
	var names strings.Builder
	var scratch []byte
	var totalPostings uint64
	off := uint64(headerSize)
	for _, kw := range keywords {
		cl := ix.Compact(kw)
		if cl == nil || cl.Len() == 0 {
			continue
		}
		if err := faultinject.Hit(FPWrite); err != nil {
			return err
		}
		scratch = cl.AppendSegment(scratch[:0])
		crc := crc32.Checksum(scratch, crcTable)
		if _, err := w.Write(scratch); err != nil {
			return err
		}
		var c [4]byte
		binary.LittleEndian.PutUint32(c[:], crc)
		if _, err := w.Write(c[:]); err != nil {
			return err
		}
		entries = append(entries, entry{
			nameOff: uint32(names.Len()),
			nameLen: uint32(len(kw)),
			segOff:  off,
			segLen:  uint64(len(scratch)) + 4,
		})
		names.WriteString(kw)
		totalPostings += uint64(cl.Len())
		off += uint64(len(scratch)) + 4
	}

	toc := make([]byte, 0, 4+len(entries)*tocEntrySize+names.Len())
	toc = binary.LittleEndian.AppendUint32(toc, uint32(len(entries)))
	for _, e := range entries {
		toc = binary.LittleEndian.AppendUint32(toc, e.nameOff)
		toc = binary.LittleEndian.AppendUint32(toc, e.nameLen)
		toc = binary.LittleEndian.AppendUint64(toc, e.segOff)
		toc = binary.LittleEndian.AppendUint64(toc, e.segLen)
	}
	toc = append(toc, names.String()...)
	if _, err := w.Write(toc); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}

	hdr := Header{
		Version:    Version,
		Keywords:   uint32(len(entries)),
		Postings:   totalPostings,
		Generation: meta.Generation,
		CorpusFP:   meta.CorpusFP,
		GlobalFP:   meta.GlobalFP,
		ConfigFP:   meta.ConfigFP,
		Keys:       meta.Keys,
		Created:    time.Now(),
		FileLen:    off + uint64(len(toc)),
		tocOff:     off,
		tocLen:     uint64(len(toc)),
	}
	hb := hdr.appendTo(nil)
	binary.LittleEndian.PutUint32(hb[96:], crc32.Checksum(toc, crcTable))
	// The tocCRC participates in the superblock CRC; recompute it.
	binary.LittleEndian.PutUint32(hb[100:], crc32.Checksum(hb[:100], crcTable))
	if _, err := f.WriteAt(hb, 0); err != nil {
		return err
	}

	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	syncDir(dir) // the temp's directory entry, before the rename
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	ok = true
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename (or create) within it is
// durable; best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// CleanupStray removes leftover temp arenas in dir (crashed writes);
// it returns the removed file names. A missing directory is fine.
func CleanupStray(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var removed []string
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), tmpSuffix) {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				removed = append(removed, e.Name())
			}
		}
	}
	return removed
}

// Ext is the conventional arena file extension.
const Ext = ".xarn"

// FileFor returns the conventional arena path for a strategy name
// inside dir: dir/<strategy>.xarn.
func FileFor(dir, strategy string) string {
	return filepath.Join(dir, strategy+Ext)
}
