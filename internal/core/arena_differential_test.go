package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/arena"
	"repro/internal/ontoscore"
)

// arenaQueries covers single keywords, conjunctions, phrases,
// ontology-heavy terms, paging, and a miss.
var arenaQueries = []string{
	"asthma",
	"asthma medications",
	`"bronchial structure" theophylline`,
	"cardiac arrest",
	"patient problems procedure",
	"zzznothing",
}

// mapArena builds sys's index, writes it as an arena file, maps it,
// and repoints the system at the mapping. The returned arena is owned
// by the test.
func mapArena(t *testing.T, sys *System, dir string) *arena.Arena {
	t.Helper()
	if _, err := sys.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := arena.FileFor(dir, sys.Config().Strategy.String())
	fp := CorpusFingerprint(sys.Corpus())
	if err := sys.WriteArena(path, 1, fp); err != nil {
		t.Fatal(err)
	}
	a, err := arena.Open(path, sys.Builder().IDs())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ArenaCompatible(a, fp); err != nil {
		a.Close()
		t.Fatal(err)
	}
	sys.UseArena(a)
	return a
}

func sameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results from heap, %d from arena", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Root.Equal(g.Root) {
			t.Fatalf("%s result %d: root %s (heap) vs %s (arena)", label, i, w.Root, g.Root)
		}
		// Byte-identical, not approximately equal: the arena payload is
		// the same encoding the heap compact list carries.
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s result %d: score %v (heap) vs %v (arena)", label, i, w.Score, g.Score)
		}
		if len(w.Matches) != len(g.Matches) {
			t.Fatalf("%s result %d: %d matches vs %d", label, i, len(w.Matches), len(g.Matches))
		}
		for j := range w.Matches {
			if !w.Matches[j].ID.Equal(g.Matches[j].ID) ||
				math.Float64bits(w.Matches[j].Score) != math.Float64bits(g.Matches[j].Score) {
				t.Fatalf("%s result %d match %d differs: %+v vs %+v",
					label, i, j, w.Matches[j], g.Matches[j])
			}
		}
	}
}

// TestArenaDifferential: serving from a mapped arena is byte-identical
// to serving from the decoded heap index, across every strategy and
// paging windows.
func TestArenaDifferential(t *testing.T) {
	dir := t.TempDir()
	for _, st := range ontoscore.Strategies() {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			heap := buildSystem(t, st)
			if _, err := heap.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			// buildSystem is deterministic (fixed seed), so a second
			// instance is the identical corpus and configuration.
			mapped := buildSystem(t, st)
			a := mapArena(t, mapped, filepath.Join(dir, st.String()))
			defer a.Close()

			ctx := context.Background()
			for _, q := range arenaQueries {
				for _, offset := range []int{0, 2} {
					req := SearchRequest{Query: q, K: 10, Offset: offset}
					wr, err := heap.Query(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					gr, err := mapped.Query(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, q, wr.Results, gr.Results)
				}
			}
			if err := a.Err(); err != nil {
				t.Fatalf("arena verification error after serving: %v", err)
			}
		})
	}
}

// TestArenaCompatibleRejects: a system must refuse arenas written
// under a different corpus, global-statistics view, or configuration.
func TestArenaCompatibleRejects(t *testing.T) {
	sys := buildSystem(t, ontoscore.StrategyRelationships)
	if _, err := sys.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := arena.FileFor(dir, "x")
	fp := CorpusFingerprint(sys.Corpus())
	if err := sys.WriteArena(path, 1, fp); err != nil {
		t.Fatal(err)
	}
	a, err := arena.Open(path, sys.Builder().IDs())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := sys.ArenaCompatible(a, fp); err != nil {
		t.Fatalf("compatible arena rejected: %v", err)
	}
	if err := sys.ArenaCompatible(a, fp+1); err == nil {
		t.Fatal("wrong global fingerprint accepted")
	}
	other := buildSystem(t, ontoscore.StrategyGraph)
	if err := other.ArenaCompatible(a, fp); err == nil {
		t.Fatal("wrong strategy accepted")
	}
}
