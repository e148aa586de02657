package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/resilience"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// shardedServer is testServer with scatter-gather over n shards.
func shardedServer(t *testing.T, n int, cfg shard.Config) (*Server, *xmltree.Corpus) {
	t.Helper()
	s, corpus := testServer(t)
	cfg.Shards = n
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s.EnableSharding(cfg)
	return s, corpus
}

// The HTTP surface is unchanged by sharding: same results, scores, and
// hydration as the single-node server, plus the shards participation
// block. testServer is deterministic, so two instances share a corpus.
func TestShardedServerEquivalence(t *testing.T) {
	single, _ := testServer(t)
	sharded, _ := shardedServer(t, 3, shard.Config{})
	for _, path := range []string{
		`/search?q=asthma+medications&k=5&snippets=1`,
		`/search?q=%22bronchial+structure%22+theophylline&strategy=Graph&fragments=1`,
		`/search?q=asthma&k=20&group=1`,
	} {
		recS := get(t, single, path)
		recC := get(t, sharded, path)
		if recS.Code != http.StatusOK || recC.Code != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", path, recS.Code, recC.Code)
		}
		var want, got SearchResponse
		if err := json.Unmarshal(recS.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(recC.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Partial || got.Degraded {
			t.Errorf("%s: healthy sharded server degraded=%v partial=%v", path, got.Degraded, got.Partial)
		}
		if len(got.Shards) != 3 {
			t.Errorf("%s: %d shard statuses, want 3", path, len(got.Shards))
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: %d results, want %d", path, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			w, g := want.Results[i], got.Results[i]
			if g.ID != w.ID || g.Score != w.Score || g.Document != w.Document ||
				g.Path != w.Path || g.Snippet != w.Snippet || g.Fragment != w.Fragment {
				t.Errorf("%s: result %d differs:\n got %+v\nwant %+v", path, i, g, w)
			}
		}
		if len(got.Groups) != len(want.Groups) {
			t.Errorf("%s: %d groups, want %d", path, len(got.Groups), len(want.Groups))
		}
	}
}

// A failed shard degrades the HTTP answer instead of failing it: 200,
// degraded and partial set, a shards block naming the failed leg,
// exactly one Warning header — and the partial outcome is not cached,
// so the next request serves the full answer again.
func TestShardedSearchPartialHTTP(t *testing.T) {
	s, _ := shardedServer(t, 2, shard.Config{})
	faultinject.Enable(shard.FPSearch, faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	defer faultinject.DisableAll()

	rec := get(t, s, `/search?q=asthma&k=5`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Partial {
		t.Fatalf("degraded=%v partial=%v, want both true", resp.Degraded, resp.Partial)
	}
	errored := 0
	for _, st := range resp.Shards {
		if st.State == "error" && st.Error != "" {
			errored++
		}
	}
	if len(resp.Shards) != 2 || errored != 1 {
		t.Fatalf("shards block = %+v, want 2 entries with one error", resp.Shards)
	}
	warns := rec.Header().Values("Warning")
	if len(warns) != 1 {
		t.Fatalf("%d Warning headers, want exactly 1: %v", len(warns), warns)
	}
	if !strings.Contains(warns[0], "shards unavailable") {
		t.Errorf("Warning = %q", warns[0])
	}

	// The failpoint is spent: the same request must re-execute (the
	// partial outcome was barred from the cache) and come back full.
	rec = get(t, s, `/search?q=asthma&k=5`)
	var full SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Degraded {
		t.Fatalf("partial outcome was cached: degraded=%v partial=%v", full.Degraded, full.Partial)
	}
	if len(full.Results) < len(resp.Results) {
		t.Errorf("full answer has %d results, partial had %d", len(full.Results), len(resp.Results))
	}
}

// degradeWarning is the single producer of the Warning header: every
// degrade reason that fired lands in one canonical value, and the
// result cache keeps only outcomes that fired none.
func TestDegradeWarningDedup(t *testing.T) {
	partialShards := []core.ShardStatus{{Shard: 0, State: "ok"}, {Shard: 1, State: "timeout"}}
	cases := []struct {
		name string
		out  SearchOutcome
		want string
	}{
		{"healthy", SearchOutcome{}, ""},
		{"ontology only", SearchOutcome{Degraded: true},
			`199 - "ontology path unavailable; results are IR-only"`},
		{"partial only", SearchOutcome{Partial: true, Shards: partialShards},
			`199 - "1/2 shards unavailable; results are partial"`},
		{"both reasons, one header", SearchOutcome{Degraded: true, Partial: true, Shards: partialShards},
			`199 - "ontology path unavailable; results are IR-only; 1/2 shards unavailable; results are partial"`},
	}
	for _, c := range cases {
		if got := degradeWarning(c.out); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
		// The result cache keeps exactly the outcomes with no warning.
		if got := c.out.cacheable(); got != (c.want == "") {
			t.Errorf("%s: cacheable = %v", c.name, got)
		}
	}
}

// Deep readiness is shard-aware: an open shard breaker flips Degraded,
// and below quorum the server leaves rotation with 503 until the
// breaker cools down.
func TestReadyzShardQuorum(t *testing.T) {
	s, _ := shardedServer(t, 2, shard.Config{
		Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond},
	})

	rec := get(t, s, "/readyz")
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(ready.Shards) != 2 || ready.ShardQuorum != 2 {
		t.Fatalf("healthy readyz: code=%d shards=%d quorum=%d", rec.Code, len(ready.Shards), ready.ShardQuorum)
	}
	for _, ss := range ready.Shards {
		if !ss.Ready || ss.Breaker.State != resilience.Closed.String() {
			t.Errorf("healthy shard status %+v", ss)
		}
	}

	// One failure trips that shard's breaker (threshold 1); with a
	// 2-shard quorum of 2 the server must leave rotation.
	faultinject.Enable(shard.FPSearch, faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	if rec := get(t, s, `/search?q=asthma&k=3`); rec.Code != http.StatusOK {
		t.Fatalf("tripping search: %d", rec.Code)
	}
	faultinject.DisableAll()

	rec = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("below-quorum readyz = %d, want 503", rec.Code)
	}
	ready = ReadyResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !ready.Degraded {
		t.Errorf("below quorum: ready=%v degraded=%v", ready.Ready, ready.Degraded)
	}
	if msg := ready.Checks["shards"]; !strings.Contains(msg, "quorum") {
		t.Errorf("shards check = %q", msg)
	}
	open := 0
	for _, ss := range ready.Shards {
		if !ss.Ready && ss.Breaker.State == resilience.Open.String() {
			open++
		}
	}
	if open != 1 {
		t.Errorf("%d open shards in readyz, want 1", open)
	}

	// Cooldown passes, a half-open probe succeeds, rotation resumes.
	time.Sleep(60 * time.Millisecond)
	if rec := get(t, s, `/search?q=asthma&k=3&snippets=1`); rec.Code != http.StatusOK {
		t.Fatalf("recovery search: %d", rec.Code)
	}
	if rec = get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("recovered readyz = %d body = %s", rec.Code, rec.Body.String())
	}
}

// POST /admin/reload on a sharded server rolls the cluster and reports
// each shard's outcome in the response.
func TestShardedAdminReload(t *testing.T) {
	s, _ := shardedServer(t, 2, shard.Config{})
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 10, ExtraConcepts: 60})
	if err != nil {
		t.Fatal(err)
	}
	next := xmltree.NewCorpus()
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 10, NumDocuments: 4, ProblemsPerPatient: 2,
		MedicationsPerPatient: 2, ProceduresPerPatient: 1,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.GenerateCorpus().Docs() {
		next.Add(&xmltree.Document{Root: d.Root, Name: d.Name})
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())
	s.SetReloader(func(ctx context.Context) (*ReloadData, error) {
		return &ReloadData{Corpus: next, Collection: coll}, nil
	})

	status, err := s.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 2 {
		t.Fatalf("reload status has %d shard outcomes, want 2", len(status.Shards))
	}
	docs := 0
	for _, r := range status.Shards {
		if r.Error != "" {
			t.Errorf("shard %d reload: %s", r.Shard, r.Error)
		}
		docs += r.Documents
	}
	if docs != next.Len() {
		t.Errorf("shard outcomes cover %d documents, corpus has %d", docs, next.Len())
	}
	// The cluster now serves the new corpus.
	rec := get(t, s, "/readyz")
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Documents != next.Len() {
		t.Errorf("readyz documents = %d, want %d", ready.Documents, next.Len())
	}
	total := 0
	for _, ss := range ready.Shards {
		total += ss.Documents
	}
	if total != next.Len() {
		t.Errorf("shards hold %d documents, want %d", total, next.Len())
	}
}
