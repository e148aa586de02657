package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ontoscore"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// deltaFixture is reloadFixture with live ingestion enabled: a server
// over a real on-disk data directory, a WAL beside it, and compaction
// wired through the reloader — the full xontoserve -live-ingest shape.
func deltaFixture(t *testing.T) (*Server, string) {
	t.Helper()
	s, docs, _ := reloadFixture(t)
	if err := s.EnableDelta(DeltaConfig{
		WALPath: filepath.Join(filepath.Dir(docs), "delta.wal"),
		Ingest:  ingest.Config{SourceDir: docs, ValidateCDA: true, Logf: t.Logf},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseDelta)
	return s, docs
}

func renderXML(t *testing.T, doc *xmltree.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingestOp drives /admin/ingest the way a client would.
func ingestOp(t *testing.T, s *Server, method, name string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, "/admin/ingest?name="+name, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func mustIngest(t *testing.T, s *Server, method, name string, body []byte) IngestResponse {
	t.Helper()
	rec := ingestOp(t, s, method, name, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s /admin/ingest?name=%s = %d: %s", method, name, rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func searchResults(t *testing.T, s *Server, path string) []SearchResult {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func resultDocs(results []SearchResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Document
	}
	return out
}

// scoreProjection reduces results to (document, score) pairs sorted by
// score then name — the representation that must survive a compaction,
// where document IDs (and with them Dewey strings and tie-break order)
// may legally change while scores must not.
func scoreProjection(results []SearchResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = fmt.Sprintf("%s=%.9f", r.Document, r.Score)
	}
	sort.Strings(out)
	return out
}

// An acknowledged live put is searchable on the very next request —
// including through the result cache, whose epoch must move with every
// applied mutation — and a live delete suppresses both base and delta
// documents. /readyz and /metrics report the delta lag throughout.
func TestLiveIngestLifecycle(t *testing.T) {
	s, docs := deltaFixture(t)

	// Warm the cache: the query that will later match the new document.
	const q = "/search?q=theophylline&k=20"
	before := searchResults(t, s, q)
	for _, d := range before {
		if d.Document == "zz-live" {
			t.Fatalf("zz-live present before ingest")
		}
	}

	// Figure 1 of the paper mentions theophylline; ingest it under a
	// fresh name.
	fig1 := figure1ForFixture(t, s)
	resp := mustIngest(t, s, http.MethodPost, "zz-live", fig1)
	if resp.Op != "put" || resp.Name != "zz-live" || resp.Seq != 1 || resp.Docs != 1 {
		t.Fatalf("ingest response = %+v", resp)
	}

	after := searchResults(t, s, q)
	found := false
	for _, r := range after {
		if r.Document == "zz-live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("zz-live not searchable after acked put; docs = %v", resultDocs(after))
	}

	// Replace: same name, new body — still one live delta document, a
	// higher version (the epoch moved again).
	rep := mustIngest(t, s, http.MethodPost, "zz-live", fig1)
	if rep.Docs != 1 || rep.Version <= resp.Version {
		t.Fatalf("replace response = %+v (previous version %d)", rep, resp.Version)
	}

	// Delete the live document: gone from results, tombstone counted.
	del := mustIngest(t, s, http.MethodDelete, "zz-live", nil)
	if del.Op != "delete" || del.Docs != 0 {
		t.Fatalf("delete response = %+v", del)
	}
	for _, r := range searchResults(t, s, q) {
		if r.Document == "zz-live" {
			t.Fatal("zz-live still searchable after delete")
		}
	}

	// Delete a base document (one that matches the query, if any; else
	// any base document): it must disappear from results too.
	target := ""
	if len(before) > 0 {
		target = before[0].Document
	} else {
		entries, err := os.ReadDir(docs)
		if err != nil {
			t.Fatal(err)
		}
		target = strings.TrimSuffix(entries[0].Name(), ".xml")
	}
	mustIngest(t, s, http.MethodDelete, target, nil)
	for _, r := range searchResults(t, s, "/search?q=theophylline&k=50") {
		if r.Document == target {
			t.Fatalf("base document %s still searchable after delete", target)
		}
	}

	// /readyz reports the delta block; /metrics exports the lag gauges.
	ready := readyz(t, s)
	if ready.Delta == nil || !ready.Delta.Enabled {
		t.Fatalf("readyz delta block = %+v", ready.Delta)
	}
	if ready.Delta.WALPending != 4 || ready.Delta.AppliedSeq != 4 {
		t.Fatalf("delta status = %+v", ready.Delta)
	}
	if ready.Delta.Tombstones == 0 {
		t.Fatalf("no tombstones reported: %+v", ready.Delta)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, m := range []string{
		"xontorank_delta_documents", "xontorank_delta_tombstones",
		"xontorank_delta_wal_pending", "xontorank_delta_last_compaction_seconds",
		`xontorank_ingest_total{op="put",outcome="ok"} 2`,
		`xontorank_ingest_total{op="delete",outcome="ok"} 2`,
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// figure1ForFixture renders the paper's Figure 1 document against the
// fixture's own ontology (reloadFixture and testCorpus use different
// seeds, so the document must be generated per server).
func figure1ForFixture(t *testing.T, s *Server) []byte {
	t.Helper()
	g := s.gen.Pin()
	defer s.gen.Release(g)
	fig1, err := cda.GenerateFigure1(g.coll.Ontologies()[0])
	if err != nil {
		t.Fatal(err)
	}
	return renderXML(t, fig1)
}

// The endpoint rejects what it must: wrong methods, bad names, empty
// and malformed bodies (the latter quarantined exactly like the
// directory pipeline), deletes of unknown documents, and any call when
// live ingestion is not enabled.
func TestIngestValidationAndErrors(t *testing.T) {
	s, docs := deltaFixture(t)

	if rec := get(t, s, "/admin/ingest?name=x"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d", rec.Code)
	}
	if rec := ingestOp(t, s, http.MethodPost, "", []byte("<x/>")); rec.Code != http.StatusBadRequest {
		t.Errorf("missing name = %d", rec.Code)
	}
	for _, bad := range []string{"..%2Fevil", "a%2Fb", ".hidden"} {
		if rec := ingestOp(t, s, http.MethodPost, bad, []byte("<x/>")); rec.Code != http.StatusBadRequest {
			t.Errorf("name %q = %d", bad, rec.Code)
		}
	}
	if rec := ingestOp(t, s, http.MethodPost, "zz-empty", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("empty body = %d", rec.Code)
	}
	if rec := ingestOp(t, s, http.MethodDelete, "zz-nosuch", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown delete = %d", rec.Code)
	}

	// A torn document answers 422 and lands in quarantine with a reason
	// file, like the directory pipeline's rejects.
	rec := ingestOp(t, s, http.MethodPost, "zz-torn", []byte("<ClinicalDocument><torn"))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("torn body = %d: %s", rec.Code, rec.Body.String())
	}
	qdir := filepath.Join(filepath.Dir(docs), "quarantine")
	if _, err := os.Stat(filepath.Join(qdir, "zz-torn.xml")); err != nil {
		t.Errorf("quarantined body: %v", err)
	}
	// Nothing was acknowledged: the WAL is untouched.
	if n := s.wal.Count(); n != 0 {
		t.Errorf("WAL records after rejects = %d, want 0", n)
	}

	// Without EnableDelta the endpoint is 501.
	plain, _ := testServer(t)
	if rec := ingestOp(t, plain, http.MethodPost, "x", []byte("<x/>")); rec.Code != http.StatusNotImplemented {
		t.Errorf("disabled ingest = %d", rec.Code)
	}
}

// One admin mutation at a time: while the gate is held (by a reload, a
// compaction, or another ingest), HTTP mutations answer 409 with
// Retry-After instead of queueing, and succeed once it frees.
func TestAdminGateConflicts(t *testing.T) {
	s, _ := deltaFixture(t)
	body := figure1ForFixture(t, s)

	s.lockAdmin()
	rec := ingestOp(t, s, http.MethodPost, "zz-gate", body)
	if rec.Code != http.StatusConflict {
		t.Fatalf("ingest under held gate = %d: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q", ra)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rr.Code != http.StatusConflict {
		t.Fatalf("reload under held gate = %d: %s", rr.Code, rr.Body.String())
	}
	s.unlockAdmin()

	mustIngest(t, s, http.MethodPost, "zz-gate", body)
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("reload after release = %d: %s", rr.Code, rr.Body.String())
	}
	// The reload rebased the delta: the live document survived it.
	for _, r := range searchResults(t, s, "/search?q=theophylline&k=20") {
		if r.Document == "zz-gate" {
			return
		}
	}
	t.Fatal("zz-gate lost across reload")
}

// Crash recovery at the HTTP layer: a second server booted over the
// same WAL (same base data) replays every acknowledged operation and
// answers queries identically to the first server's final state.
func TestDeltaWALRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "delta.wal")
	build := func() *Server {
		_, corpus, coll := testCorpus(t)
		s := New(corpus, coll, core.DefaultConfig())
		s.SetLogf(t.Logf)
		if err := s.EnableDelta(DeltaConfig{WALPath: walPath}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := build()
	body := figure1ForFixture(t, s1)
	g := s1.gen.Pin()
	victim := g.corpus.Docs()[2].Name
	s1.gen.Release(g)
	mustIngest(t, s1, http.MethodPost, "zz-a", body)
	mustIngest(t, s1, http.MethodDelete, victim, nil)
	mustIngest(t, s1, http.MethodPost, "zz-a", body) // replace

	queries := []string{
		"/search?q=theophylline&k=20",
		"/search?q=asthma+medications&k=10&snippets=1",
		"/search?q=%22bronchial+structure%22+theophylline&strategy=Graph&k=10",
	}
	want := make([][]SearchResult, len(queries))
	for i, q := range queries {
		want[i] = searchResults(t, s1, q)
	}
	s1.CloseDelta()

	s2 := build() // replays the WAL on EnableDelta
	t.Cleanup(s2.CloseDelta)
	if s2.Delta().AppliedSeq() != 3 {
		t.Fatalf("replayed seq = %d, want 3", s2.Delta().AppliedSeq())
	}
	for i, q := range queries {
		got := searchResults(t, s2, q)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: recovered results differ\n got: %v\nwant: %v", q, resultDocs(got), resultDocs(want[i]))
		}
	}
}

// Compaction end to end: the cycle materializes the delta into the
// source directory, truncates the WAL, and folds everything into a
// fresh generation — after which the delta is empty and every query
// scores exactly as it did when the documents lived in the delta (the
// rebuild differential, through HTTP).
func TestCompactionFoldsDelta(t *testing.T) {
	s, docs := deltaFixture(t)
	body := figure1ForFixture(t, s)

	entries, err := os.ReadDir(docs)
	if err != nil {
		t.Fatal(err)
	}
	victim := strings.TrimSuffix(entries[0].Name(), ".xml")

	mustIngest(t, s, http.MethodPost, "zz-live", body)
	mustIngest(t, s, http.MethodDelete, victim, nil)

	queries := []string{
		"/search?q=theophylline&k=20",
		"/search?q=asthma+medications&k=10",
		"/search?q=patient+problems&k=20&strategy=Taxonomy",
		"/search?q=zzznothing",
	}
	before := make([][]string, len(queries))
	for i, q := range queries {
		before[i] = scoreProjection(searchResults(t, s, q))
	}

	if err := s.compactCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.GenerationNum(); got != 2 {
		t.Errorf("generation after compaction = %d, want 2", got)
	}
	ready := readyz(t, s)
	if d := ready.Delta; d == nil || d.WALPending != 0 || d.Documents != 0 || d.Tombstones != 0 {
		t.Fatalf("delta status after compaction = %+v", ready.Delta)
	}
	if _, err := os.Stat(filepath.Join(docs, "zz-live.xml")); err != nil {
		t.Errorf("materialized document: %v", err)
	}
	if _, err := os.Stat(filepath.Join(docs, victim+".xml")); !os.IsNotExist(err) {
		t.Errorf("deleted document still on disk (err=%v)", err)
	}

	for i, q := range queries {
		after := scoreProjection(searchResults(t, s, q))
		if !reflect.DeepEqual(after, before[i]) {
			t.Errorf("%s: scores changed across compaction\n got: %v\nwant: %v", q, after, before[i])
		}
	}

	// An empty delta makes the next cycle a no-op.
	if err := s.compactCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.GenerationNum(); got != 2 {
		t.Errorf("no-op compaction advanced generation to %d", got)
	}
}

// The sharding differential under live ingestion: after the same
// mutation script, sharded servers at 1, 2, and 4 shards answer every
// query identically to the single-node delta server — results, scores,
// matches, and snippets — across all four strategies.
func TestShardedDeltaDifferential(t *testing.T) {
	build := func(shards int) *Server {
		_, corpus, coll := testCorpus(t)
		s := New(corpus, coll, core.DefaultConfig())
		s.SetLogf(t.Logf)
		if shards > 0 {
			s.EnableSharding(shard.Config{Shards: shards, Logf: t.Logf})
		}
		if err := s.EnableDelta(DeltaConfig{
			WALPath: filepath.Join(t.TempDir(), "delta.wal"),
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.CloseDelta)
		return s
	}

	ref := build(0)
	body := figure1ForFixture(t, ref)
	g := ref.gen.Pin()
	victim := g.corpus.Docs()[3].Name
	extra := renderXML(t, g.corpus.Docs()[1]) // replace content for zz-b
	ref.gen.Release(g)

	script := func(s *Server) {
		mustIngest(t, s, http.MethodPost, "zz-a", body)
		mustIngest(t, s, http.MethodPost, "zz-b", extra)
		mustIngest(t, s, http.MethodDelete, victim, nil)
		mustIngest(t, s, http.MethodPost, "zz-b", body) // replace
	}
	script(ref)

	var queries []string
	for _, st := range ontoscore.Strategies() {
		queries = append(queries,
			"/search?q=theophylline&k=20&snippets=1&strategy="+st.String(),
			"/search?q=asthma+medications&k=10&strategy="+st.String(),
			"/search?q=%22bronchial+structure%22+theophylline&k=10&strategy="+st.String(),
		)
	}
	want := make([][]SearchResult, len(queries))
	for i, q := range queries {
		want[i] = searchResults(t, ref, q)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := build(shards)
			script(s)
			for i, q := range queries {
				got := searchResults(t, s, q)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: sharded results differ from single node\n got: %v\nwant: %v",
						q, resultDocs(got), resultDocs(want[i]))
				}
			}
		})
	}
}

// A plain reload with a non-empty delta (pending WAL records) must not
// move a single score: the NEW generation's builders get the live
// statistics view and tombstone-aware calibrator — a regression here
// once installed them through s.gen.Load(), which still named the old,
// still-serving generation at wiring time — and the subsequent
// compaction (a genuine full rebuild of the live corpus) must agree
// with both.
func TestReloadWithPendingWALDifferential(t *testing.T) {
	s, docs := deltaFixture(t)
	body := figure1ForFixture(t, s)
	entries, err := os.ReadDir(docs)
	if err != nil {
		t.Fatal(err)
	}
	victim := strings.TrimSuffix(entries[0].Name(), ".xml")

	mustIngest(t, s, http.MethodPost, "zz-live", body)
	mustIngest(t, s, http.MethodDelete, victim, nil)

	var queries []string
	for _, st := range ontoscore.Strategies() {
		queries = append(queries,
			"/search?q=theophylline&k=20&strategy="+st.String(),
			"/search?q=asthma+medications&k=10&strategy="+st.String(),
		)
	}
	before := make([][]string, len(queries))
	for i, q := range queries {
		before[i] = scoreProjection(searchResults(t, s, q))
	}

	// Plain reload: the WAL keeps its records, the segment rebases onto
	// the fresh generation, and the acknowledged ingests keep scoring
	// exactly as before.
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.wal.Count(); n != 2 {
		t.Fatalf("WAL pending after plain reload = %d, want 2", n)
	}
	for i, q := range queries {
		got := scoreProjection(searchResults(t, s, q))
		if !reflect.DeepEqual(got, before[i]) {
			t.Errorf("%s: scores changed across reload with pending WAL\n got: %v\nwant: %v", q, got, before[i])
		}
	}

	// The full rebuild: compaction folds the delta into the base; the
	// scores must still be byte-identical.
	if err := s.compactCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.wal.Count(); n != 0 {
		t.Fatalf("WAL pending after compaction = %d, want 0", n)
	}
	for i, q := range queries {
		got := scoreProjection(searchResults(t, s, q))
		if !reflect.DeepEqual(got, before[i]) {
			t.Errorf("%s: scores changed across compaction after reload\n got: %v\nwant: %v", q, got, before[i])
		}
	}
}
