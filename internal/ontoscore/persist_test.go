package ontoscore

import (
	"math"
	"testing"

	"repro/internal/ontology"
	"repro/internal/store"
)

func TestMapSaveLoadRoundTrip(t *testing.T) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 8, ExtraConcepts: 120, SynonymProb: 0.3,
		MultiParentProb: 0.1, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewComputer(ont, DefaultParams())
	vocab := []string{"asthma", "cardiac", "structure", "aspirin", "zzznothing"}
	m := BuildMap(c, StrategyRelationships, vocab)
	if m.Entries() == 0 {
		t.Fatal("empty map")
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := m.SaveTo(st, "onto"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(st, "onto", c, StrategyRelationships)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy() != StrategyRelationships {
		t.Error("strategy lost")
	}
	if got.Entries() != m.Entries() {
		t.Fatalf("entries: %d vs %d", got.Entries(), m.Entries())
	}
	for _, kw := range m.Keywords() {
		want := m.ScoresFor(kw)
		have := got.ScoresFor(kw)
		if len(want) != len(have) {
			t.Fatalf("kw %q sizes differ", kw)
		}
		for id, v := range want {
			if math.Abs(have[id]-v) > 0 {
				t.Errorf("kw %q concept %d: %v vs %v", kw, id, have[id], v)
			}
		}
	}
	// Loading a strategy with no saved entries yields an empty map.
	empty, err := LoadMap(st, "onto", c, StrategyGraph)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Entries() != 0 {
		t.Errorf("cross-strategy leak: %d entries", empty.Entries())
	}
}

func TestLoadMapCorrupt(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("onto/Graph/asthma", []byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	c := NewComputer(ontology.Figure2Fragment(), DefaultParams())
	if _, err := LoadMap(st, "onto", c, StrategyGraph); err == nil {
		t.Error("corrupt scores loaded")
	}
}

func TestDecodeScoresErrors(t *testing.T) {
	good := appendScores(nil, Scores{1: 0.5, 9: 0.25})
	if _, err := decodeScores(good); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		if _, err := decodeScores(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if _, err := decodeScores(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
