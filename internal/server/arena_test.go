package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

var arenaSearchPaths = []string{
	"/search?q=asthma&k=5",
	"/search?q=asthma+medications&k=5",
	"/search?q=%22bronchial+structure%22+theophylline&k=5",
	"/search?q=patient+problems&k=5&strategy=Graph",
	"/search?q=cardiac&k=5&strategy=XRANK",
	"/search?q=procedure&k=5&strategy=Taxonomy",
	"/search?q=medications&k=3&offset=2",
}

// arenaFixture is reloadFixture plus memory-mapped serving: arena
// files are built and mapped for every strategy on first use.
func arenaFixture(t *testing.T) (*Server, string, *ontology.Ontology, string) {
	t.Helper()
	s, docs, ont := reloadFixture(t)
	dir := filepath.Join(filepath.Dir(docs), "arena")
	if err := s.EnableArena(ArenaConfig{Dir: dir, Rebuild: true}); err != nil {
		t.Fatal(err)
	}
	return s, docs, ont, dir
}

// serverOver builds a plain server over an existing docs directory,
// the same way reloadFixture does for the directory it creates.
func serverOver(t *testing.T, docs string, ont *ontology.Ontology) *Server {
	t.Helper()
	res, err := ingest.Run(context.Background(), ingest.Config{
		SourceDir: docs, ValidateCDA: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())
	s := New(res.Corpus, coll, core.DefaultConfig())
	s.SetLogf(t.Logf)
	return s
}

func TestEnableArenaAttachesAllStrategies(t *testing.T) {
	s, _, _, dir := arenaFixture(t)
	sts := s.ArenaStatuses()
	if want := len(ontoscore.Strategies()); len(sts) != want {
		t.Fatalf("mapped %d arenas, want %d: %+v", len(sts), want, sts)
	}
	for _, st := range sts {
		if !st.Mapped || st.Bytes == 0 || st.Keywords == 0 {
			t.Fatalf("arena not serving: %+v", st)
		}
		if filepath.Dir(st.Path) != dir {
			t.Fatalf("arena %s outside %s", st.Path, dir)
		}
	}
	if err := s.EnableArena(ArenaConfig{Dir: dir}); err == nil {
		t.Fatal("double EnableArena accepted")
	}
	if err := s.EnableArena(ArenaConfig{}); err == nil {
		t.Fatal("EnableArena without Dir accepted")
	}
}

// TestArenaServesIdenticalResults: the full HTTP search path over
// mapped arenas returns exactly what heap serving returns, for every
// strategy and paging window.
func TestArenaServesIdenticalResults(t *testing.T) {
	s, docs, ont, _ := arenaFixture(t)
	heap := serverOver(t, docs, ont)
	for _, path := range arenaSearchPaths {
		want := searchResults(t, heap, path)
		got := searchResults(t, s, path)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: arena results differ from heap:\narena: %+v\nheap:  %+v", path, got, want)
		}
	}
}

// TestArenaColdAttach: a second server over the same corpus attaches
// the files the first one wrote, without Rebuild — the cold-start
// path. A corrupted file is refused and that strategy serves from
// heap, with search unaffected.
func TestArenaColdAttach(t *testing.T) {
	s, docs, ont, dir := arenaFixture(t)
	want := searchResults(t, s, arenaSearchPaths[0])

	cold := serverOver(t, docs, ont)
	if err := cold.EnableArena(ArenaConfig{Dir: dir, Rebuild: false}); err != nil {
		t.Fatal(err)
	}
	if got, wantN := len(cold.ArenaStatuses()), len(ontoscore.Strategies()); got != wantN {
		t.Fatalf("cold attach mapped %d arenas, want %d", got, wantN)
	}
	if got := searchResults(t, cold, arenaSearchPaths[0]); !reflect.DeepEqual(want, got) {
		t.Fatalf("cold-attached results differ: %+v vs %+v", got, want)
	}

	// Corrupt one file's superblock (segment corruption is caught
	// lazily, per keyword; the superblock is validated at open): that
	// strategy must fall back to heap while the others stay mapped.
	victim := cold.ArenaStatuses()[0].Path
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	hurt := serverOver(t, docs, ont)
	if err := hurt.EnableArena(ArenaConfig{Dir: dir, Rebuild: false}); err != nil {
		t.Fatal(err)
	}
	if got, wantN := len(hurt.ArenaStatuses()), len(ontoscore.Strategies())-1; got != wantN {
		t.Fatalf("after corruption mapped %d arenas, want %d", got, wantN)
	}
	if got := searchResults(t, hurt, arenaSearchPaths[0]); !reflect.DeepEqual(want, got) {
		t.Fatalf("heap-fallback results differ: %+v vs %+v", got, want)
	}
}

// TestArenaReloadSwapsAndDrains: a reload rebuilds arenas for the new
// corpus before it serves, and the old generation's mappings survive
// exactly as long as a pinned request — unmapped only when the last
// reference drains.
func TestArenaReloadSwapsAndDrains(t *testing.T) {
	s, docs, ont, _ := arenaFixture(t)

	// Pin the serving generation, as an in-flight request would.
	old := s.gen.Pin()
	oldArenas := old.Arenas()
	if len(oldArenas) == 0 {
		t.Fatal("no arenas on the active generation")
	}

	// Grow the corpus and roll onto it.
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 77, NumDocuments: 2,
		ProblemsPerPatient: 2, MedicationsPerPatient: 2, ProceduresPerPatient: 1}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range g.GenerateCorpus().Docs() {
		writeDoc(t, docs, doc)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", rec.Code, rec.Body.String())
	}

	// The new generation serves from fresh arenas (new fingerprint),
	// while the pinned old generation keeps its mappings alive.
	sts := s.ArenaStatuses()
	if want := len(ontoscore.Strategies()); len(sts) != want {
		t.Fatalf("new generation mapped %d arenas, want %d", len(sts), want)
	}
	for _, a := range oldArenas {
		if !a.Mapped() {
			t.Fatalf("old arena %s unmapped while still pinned", a.Path())
		}
	}
	if got := searchResults(t, s, arenaSearchPaths[0]); len(got) == 0 {
		t.Fatal("no results from the reloaded arenas")
	}

	// Dropping the pin drains the old generation; its arenas unmap.
	s.gen.Release(old)
	for _, a := range oldArenas {
		if a.Mapped() || a.MappedBytes() != 0 {
			t.Fatalf("old arena %s still mapped after drain", a.Path())
		}
	}
}

// TestArenaReloadUnderLoad hammers the mapped search path through a
// reload — with -race this is the munmap-after-drain correctness
// proof: no search may touch an unmapped page.
func TestArenaReloadUnderLoad(t *testing.T) {
	s, docs, ont, _ := arenaFixture(t)
	_ = ont
	_ = docs

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, arenaSearchPaths[(w+i)%len(arenaSearchPaths)], nil))
				if rec.Code != http.StatusOK {
					t.Errorf("search during reload = %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
	if got, want := len(s.ArenaStatuses()), len(ontoscore.Strategies()); got != want {
		t.Fatalf("after reloads mapped %d arenas, want %d", got, want)
	}
}

// TestArenaDeltaDifferential: live delta ingestion on top of mapped
// arenas (base postings materialize through the overlay path) matches
// a pure-heap server with the same delta, byte for byte.
func TestArenaDeltaDifferential(t *testing.T) {
	mkDelta := func(t *testing.T, mmap bool) (*Server, string) {
		s, docs, _ := reloadFixture(t)
		if mmap {
			dir := filepath.Join(filepath.Dir(docs), "arena")
			if err := s.EnableArena(ArenaConfig{Dir: dir, Rebuild: true}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.EnableDelta(DeltaConfig{
			WALPath: filepath.Join(filepath.Dir(docs), "delta.wal"),
			Ingest:  ingest.Config{SourceDir: docs, ValidateCDA: true, Logf: t.Logf},
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.CloseDelta)
		return s, docs
	}
	mapped, _ := mkDelta(t, true)
	heap, _ := mkDelta(t, false)

	// reloadFixture is seed-deterministic, so both fixtures hold the
	// same corpus; ingest the same live document into each.
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 11, ExtraConcepts: 50})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 33, NumDocuments: 1,
		ProblemsPerPatient: 2, MedicationsPerPatient: 2, ProceduresPerPatient: 1}, ont)
	if err != nil {
		t.Fatal(err)
	}
	doc := g.GenerateCorpus().Docs()[0]
	body := renderXML(t, doc)
	mustIngest(t, mapped, http.MethodPost, "live-doc", body)
	mustIngest(t, heap, http.MethodPost, "live-doc", body)

	for _, path := range arenaSearchPaths {
		want := searchResults(t, heap, path)
		got := searchResults(t, mapped, path)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: arena+delta differs from heap+delta:\narena: %+v\nheap:  %+v", path, got, want)
		}
	}
}
