package dil

import (
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// checkKeys holds a stage table's tree shape to its identifiers: every
// key's parent is its identifier's parent (-1 for a document root),
// its end the last key its identifier prefixes, and the LCA of a key
// and the next key of its document their common prefix.
func checkKeys(t *testing.T, name string, k *Keys) {
	t.Helper()
	byID := make(map[string]int32, k.Len())
	for key, id := range k.ids {
		byID[id.String()] = int32(key)
	}
	for key := int32(0); int(key) < k.Len(); key++ {
		id := k.ids[key]
		parent := int32(-1)
		if len(id) > 1 {
			parent = byID[id[:len(id)-1].String()]
		}
		if k.parent[key] != parent {
			t.Fatalf("%s: key %d (%v) has parent %d, want %d", name, key, id, k.parent[key], parent)
		}
		end := k.end[key]
		if end < key || !id.IsAncestorOrSelf(k.ids[end]) ||
			(int(end)+1 < k.Len() && id.IsAncestorOrSelf(k.ids[end+1])) {
			t.Fatalf("%s: key %d (%v) has subtree end %d", name, key, id, end)
		}
		if k.Depth(key) != len(id) {
			t.Fatalf("%s: key %d (%v) has depth %d", name, key, id, k.Depth(key))
		}
		if next := key + 1; int(next) < k.Len() && k.ids[next][0] == id[0] {
			lcp := 0
			for lcp < len(id) && lcp < len(k.ids[next]) && id[lcp] == k.ids[next][lcp] {
				lcp++
			}
			if lca := k.LCA(key, next); !k.ids[lca].Equal(id[:lcp]) {
				t.Fatalf("%s: LCA of %v and %v is %v", name, id, k.ids[next], k.ids[lca])
			}
		}
	}
}

// The tables the merge reads agree with Dewey for every key: over the
// benchmark's seed-1 corpus (800 documents and Figure 1) split into a
// base stage and a delta stage numbered after it, and through the IDs
// a pinned builder hands its lists.
func TestKeysAgreeWithDewey(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 1, ExtraConcepts: 5000, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 1, NumDocuments: 800, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2}, ont)
	if err != nil {
		t.Fatal(err)
	}
	all := g.GenerateCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	all.Add(fig1)
	base, delta := xmltree.NewCorpus(), xmltree.NewCorpus()
	for _, doc := range all.Docs() {
		if doc.ID < 780 {
			base.AddExisting(doc)
		} else {
			delta.AddExisting(doc)
		}
	}
	side := ontoscore.NewSide(ontology.MustCollection(ont), ontoscore.DefaultParams())
	st := []ontoscore.Strategy{ontoscore.StrategyGraph}
	b := NewBuilders(base, side, st, DefaultParams())[st[0]]
	d := NewBuilders(delta, side, st, DefaultParams())[st[0]]
	ids := b.Pin(Live{Stats: b.LocalTextStats(), Delta: d}).IDs()
	if ids.Base != b.keys || ids.Delta != d.keys {
		t.Fatal("a pinned builder's IDs are not its stages' tables")
	}
	checkKeys(t, "base", ids.Base)
	checkKeys(t, "delta", ids.Delta)
	for key := int32(0); int(key) < ids.Len(); key++ {
		k, off := ids.Stage(key)
		if !ids.ID(key).Equal(k.ids[key-off]) || (off > 0) != (int(key) >= b.keys.Len()) {
			t.Fatalf("key %d resolves to the wrong stage", key)
		}
	}
}
