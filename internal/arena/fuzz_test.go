package arena

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzArenaDecode drives the full decode surface — superblock, offset
// table, and per-keyword segment validation — with arbitrary bytes.
// The invariant is totality: any input either fails cleanly or yields
// an arena whose every keyword fully decodes (or reads as absent);
// nothing panics, no matter the image.
func FuzzArenaDecode(f *testing.F) {
	// Seed with a small valid image plus targeted damage.
	path := filepath.Join(f.TempDir(), "seed"+Ext)
	if err := Write(path, randomIndex(42, 5, 120), Meta{Keys: testKeys, Generation: 3}); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:headerSize])
	for _, off := range []int{5, 13, 60, 90, headerSize + 3, len(img) - 8} {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := FromBytes(data, testIDs)
		if err != nil {
			return
		}
		defer a.Close()
		for i := 0; i < a.Len(); i++ {
			cl := a.compactAt(i)
			if cl == nil {
				continue // marked bad; must stay absent
			}
			// Force a full borrowed decode of every posting, each key
			// resolved through the table.
			l := postingsOf(cl)
			for _, p := range l {
				cl.IDs().ID(p.Key)
			}
			if len(l) != cl.Len() {
				t.Fatalf("keyword %d: decoded %d postings, Len says %d", i, len(l), cl.Len())
			}
		}
	})
}
