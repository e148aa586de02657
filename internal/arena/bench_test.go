package arena

import (
	"path/filepath"
	"testing"
)

// BenchmarkArenaOpen measures attaching an arena file: open, superblock
// and offset-table validation, and the mapping, then close. Segment
// CRCs are checked lazily on first access, so none is read here.
func BenchmarkArenaOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench"+Ext)
	if err := Write(path, randomIndex(9, 400, 400), Meta{Keys: testKeys}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Open(path, testIDs)
		if err != nil {
			b.Fatal(err)
		}
		a.Close()
	}
}
