package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// reloadFixture builds a server over a real on-disk data directory:
// the corpus is ingested through the pipeline and the reloader re-runs
// it, exactly as xontoserve wires it.
func reloadFixture(t *testing.T) (*Server, string, *ontology.Ontology) {
	t.Helper()
	base := t.TempDir()
	docs := filepath.Join(base, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 11, ExtraConcepts: 50})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 11, NumDocuments: 6, ProblemsPerPatient: 2,
		MedicationsPerPatient: 2, ProceduresPerPatient: 1}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range g.GenerateCorpus().Docs() {
		writeDoc(t, docs, doc)
	}
	res, err := ingest.Run(context.Background(), ingest.Config{
		SourceDir: docs, ValidateCDA: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())
	s := New(res.Corpus, coll, core.DefaultConfig())
	s.SetLogf(t.Logf)
	s.SetLastIngest(res.Report)
	s.SetReloader(func(ctx context.Context) (*ReloadData, error) {
		r, err := ingest.Run(ctx, ingest.Config{SourceDir: docs, ValidateCDA: true, Logf: t.Logf})
		if err != nil {
			return nil, err
		}
		return &ReloadData{Corpus: r.Corpus, Collection: coll, Ingest: r.Report}, nil
	})
	return s, docs, ont
}

func writeDoc(t *testing.T, dir string, doc *xmltree.Document) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, doc.Name+".xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := xmltree.WriteXML(f, doc.Root); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readyz(t *testing.T, s *Server) ReadyResponse {
	t.Helper()
	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// A reload over a grown corpus advances the generation, the new
// documents are immediately searchable, and /readyz reports the new
// ingest summary.
func TestReloadAdvancesGeneration(t *testing.T) {
	s, docs, ont := reloadFixture(t)
	// No release hook: the boot generation's drain is still logged.
	var logMu sync.Mutex
	var logs []string
	s.SetLogf(func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	before := readyz(t, s)
	if before.Generation != 1 || before.Documents != 6 {
		t.Fatalf("before = %+v", before)
	}
	if before.LastIngest == nil || before.LastIngest.Ingested != 6 {
		t.Fatalf("lastIngest = %+v", before.LastIngest)
	}

	// A new valid document and a corrupt one arrive upstream.
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	writeDoc(t, docs, fig1)
	if err := os.WriteFile(filepath.Join(docs, "zz-corrupt.xml"), []byte("<ClinicalDocument><torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/reload = %d: %s", rec.Code, rec.Body.String())
	}
	var status ReloadStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Generation != 2 || status.Documents != 7 {
		t.Fatalf("status = %+v", status)
	}
	if status.Ingest == nil || status.Ingest.Quarantined != 1 || status.Ingest.Resumed != 6 || status.Ingest.Ingested != 1 {
		t.Fatalf("ingest = %+v", status.Ingest)
	}

	after := readyz(t, s)
	if after.Generation != 2 || after.Documents != 7 {
		t.Fatalf("after = %+v", after)
	}
	// The reload request itself pinned generation 1, so it has drained
	// by the time ServeHTTP returned.
	logMu.Lock()
	drained := strings.Contains(strings.Join(logs, "\n"), "server: generation 1 drained and released")
	logMu.Unlock()
	if !drained {
		t.Fatalf("generation 1 drain not logged: %q", logs)
	}
	if after.LastIngest == nil || after.LastIngest.Quarantined != 1 {
		t.Fatalf("lastIngest = %+v", after.LastIngest)
	}

	// GET is rejected.
	if rec := get(t, s, "/admin/reload"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d", rec.Code)
	}
}

func TestReloadNotConfigured(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("reload without reloader = %d", rec.Code)
	}
}

// The zero-downtime contract: under sustained concurrent traffic, a
// reload produces no non-2xx response, the corpus visibly advances,
// and the superseded generation is drained and released.
func TestReloadUnderLoadNoDroppedRequests(t *testing.T) {
	s, docs, ont := reloadFixture(t)
	var released []uint64
	var relMu sync.Mutex
	s.SetReleaseHook(func(num uint64) {
		relMu.Lock()
		released = append(released, num)
		relMu.Unlock()
	})

	paths := []string{
		"/search?q=asthma+medications&k=5",
		"/search?q=cardiac+arrest&k=3&snippets=1",
		"/readyz",
		"/stats",
	}
	var stop atomic.Bool
	var non2xx atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[(w+i)%len(paths)], nil))
				total.Add(1)
				if rec.Code < 200 || rec.Code > 299 {
					non2xx.Add(1)
					t.Errorf("%s -> %d: %s", paths[(w+i)%len(paths)], rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	// Grow the corpus and swap twice while the load runs, waiting for
	// real traffic before and between the swaps so each flip happens
	// under fire.
	waitTraffic := func(target int64) {
		for total.Load() < target && non2xx.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	writeDoc(t, docs, fig1)
	for i := 0; i < 2; i++ {
		waitTraffic(total.Load() + 16)
		if _, err := s.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitTraffic(total.Load() + 16)
	stop.Store(true)
	wg.Wait()

	if n := non2xx.Load(); n != 0 {
		t.Fatalf("%d non-2xx of %d during swaps", n, total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no traffic during swap")
	}
	if got := s.GenerationNum(); got != 3 {
		t.Fatalf("generation = %d", got)
	}
	// With traffic stopped, every superseded generation must drain.
	// Release order is whenever each refcount hits zero — a gen-1-pinned
	// request can legitimately outlive the quickly-superseded gen 2 — so
	// compare the set, not the sequence.
	relMu.Lock()
	defer relMu.Unlock()
	sort.Slice(released, func(i, j int) bool { return released[i] < released[j] })
	if len(released) != 2 || released[0] != 1 || released[1] != 2 {
		t.Fatalf("released generations = %v", released)
	}
	// The new corpus is searchable (figure 1's content).
	res := readyz(t, s)
	if res.Documents != 7 {
		t.Fatalf("documents = %d", res.Documents)
	}
}

// Search results must come from the generation the request pinned:
// epoch-keyed caching means a pre-reload cached answer is never served
// to a post-reload request.
func TestReloadCacheIsolation(t *testing.T) {
	s, docs, ont := reloadFixture(t)

	// Figure 1 is the asthma/theophylline record; this query will match
	// it once it joins the corpus.
	q := "/search?q=asthma+theophylline&k=10"
	hasFig1 := func(rec *httptest.ResponseRecorder) bool {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
		}
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if r.Document == "figure-1" {
				return true
			}
		}
		return false
	}
	// Prime the cache on generation 1 (second request proves the entry
	// is live).
	if hasFig1(get(t, s, q)) {
		t.Fatal("figure-1 present before it was ingested")
	}
	hits := s.svc.Stats().Snapshot().CacheHits
	if hasFig1(get(t, s, q)) {
		t.Fatal("figure-1 present before it was ingested (cached)")
	}
	if s.svc.Stats().Snapshot().CacheHits != hits+1 {
		t.Fatal("second identical search was not a cache hit")
	}

	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	writeDoc(t, docs, fig1)
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The same query on generation 2 must see the new document, not the
	// generation-1 cache entry.
	if !hasFig1(get(t, s, q)) {
		t.Fatal("post-reload search served the pre-reload answer: figure-1 missing")
	}
}

// What the last generation swap cost is observable: the reload status
// and /metrics both split the build into its one full-text stage and
// the rest, and the four systems of a generation report the same stage.
func TestReloadReportsBuildCost(t *testing.T) {
	s, _, _ := reloadFixture(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/reload = %d: %s", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["text_stage_ms"].(float64); !ok {
		t.Errorf("reload status has no text_stage_ms: %s", rec.Body.String())
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, series := range []string{
		`xontorank_generation_build_seconds{stage="text"} `,
		`xontorank_generation_build_seconds{stage="systems"} `,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	text := s.System(ontoscore.StrategyNone).Builder().FullTextTime()
	for _, st := range ontoscore.Strategies() {
		if got := s.System(st).Builder().FullTextTime(); got != text || got <= 0 {
			t.Errorf("%s ran a full-text stage of its own (%v, XRANK %v)", st, got, text)
		}
	}
}
