package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/gen"
)

// The CLI's index is the server's: `xontorank index` writes the arena
// file that `xontoserve -mmap-index` attaches, under the same
// fingerprint, and a system serving from it answers exactly as one
// that builds keywords on demand.
func TestIndexArenaAttachesAndAnswers(t *testing.T) {
	data := t.TempDir()
	if err := cmdGen([]string{"-out", data, "-docs", "20", "-concepts", "300", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIndex([]string{"-data", data, "-strategy", "Relationships"}); err != nil {
		t.Fatal(err)
	}
	path := arena.FileFor(filepath.Join(data, "arena"), "Relationships")
	rep, err := arena.Verify(path, nil)
	if err != nil {
		t.Fatalf("arena %s fails Verify: %v", path, err)
	}
	if rep.Keywords == 0 || rep.TotalPostings == 0 {
		t.Fatalf("arena is empty: %+v", rep)
	}

	mapped, err := newSystem(data, "Relationships")
	if err != nil {
		t.Fatal(err)
	}
	var snap gen.Snapshot
	a, stale, err := snap.AttachArena(mapped, path, core.CorpusFingerprint(mapped.Corpus()), false)
	if stale != nil || err != nil {
		t.Fatalf("attach: stale=%v err=%v", stale, err)
	}
	defer a.Close()

	onDemand, err := newSystem(data, "Relationships")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"asthma medications", `"bronchial structure" theophylline`, "cardiac arrest"} {
		got, want := answer(t, mapped, q), answer(t, onDemand, q)
		if len(want) == 0 {
			t.Fatalf("q %q: no results on demand", q)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q %q: arena answers differ from on-demand ones:\ngot  %+v\nwant %+v", q, got, want)
		}
	}
}

// answer runs q at k=10 and returns the results without their
// query-phase internals.
func answer(t *testing.T, sys *core.System, q string) []core.Result {
	t.Helper()
	resp, err := sys.Query(context.Background(), core.SearchRequest{Query: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.Result, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = core.Result{Root: r.Root, Score: r.Score, Document: r.Document, Path: r.Path, Matches: r.Matches}
	}
	return out
}
