package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// TestSearchWireEquivalence: an answer served over the shard API must
// be byte-identical (roots, scores, matches, snippets) to the same
// system queried in-process.
func TestSearchWireEquivalence(t *testing.T) {
	systems := testSystems(t)
	_, _, c := newTestPeer(t, Options{})

	for _, st := range ontoscore.Strategies() {
		sys := systems[st.String()]
		keywords := query.ParseQuery("asthma medications")
		want, err := sys.Query(context.Background(), core.SearchRequest{
			Keywords: keywords, K: 10, Explain: true,
		})
		if err != nil {
			t.Fatal(err)
		}

		kws := make([]string, len(keywords))
		for i, kw := range keywords {
			kws[i] = string(kw)
		}
		got, err := c.Search(context.Background(), &SearchRequestWire{
			V: APIVersion, Strategy: st.String(), Keywords: kws,
			K: 10, Explain: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: got %d results, want %d", st, len(got.Results), len(want.Results))
		}
		for i, wr := range got.Results {
			ref := want.Results[i]
			if wr.Root != ref.Root.String() {
				t.Errorf("%s[%d]: root %s, want %s", st, i, wr.Root, ref.Root)
			}
			if wr.Score != ref.Score {
				t.Errorf("%s[%d]: score %v, want %v", st, i, wr.Score, ref.Score)
			}
			if wr.Document != ref.Document || wr.Path != ref.Path {
				t.Errorf("%s[%d]: document/path mismatch", st, i)
			}
			if len(wr.Matches) != len(ref.Matches) {
				t.Fatalf("%s[%d]: %d matches, want %d", st, i, len(wr.Matches), len(ref.Matches))
			}
			for j, m := range wr.Matches {
				rm := ref.Matches[j]
				if m.Keyword != rm.Keyword || m.ID != rm.ID.String() || m.Score != rm.Score {
					t.Errorf("%s[%d] match %d: %+v vs %+v", st, i, j, m, rm)
				}
			}
			if i < len(want.Snippets) && wr.Snippet != want.Snippets[i] {
				t.Errorf("%s[%d]: snippet mismatch", st, i)
			}
		}
	}
}

// TestStatsRoundTrip: GET /shard/stats must report the builder's local
// statistics, and a POST must install what a coordinator merged.
func TestStatsRoundTrip(t *testing.T) {
	systems := testSystems(t)
	_, _, c := newTestPeer(t, Options{})

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Documents != fixCorpus.Len() {
		t.Fatalf("documents = %d, want %d", stats.Documents, fixCorpus.Len())
	}
	name := ontoscore.StrategyRelationships.String()
	sw, ok := stats.Strategies[name]
	if !ok {
		t.Fatalf("no stats for %s (have %v)", name, len(stats.Strategies))
	}
	local := systems[name].Builder().LocalTextStats()
	if sw.N != local.N || sw.TotalLen != local.TotalLen || len(sw.DF) != len(local.DF) {
		t.Fatalf("stats mismatch: wire %d/%d/%d vs local %d/%d/%d",
			sw.N, sw.TotalLen, len(sw.DF), local.N, local.TotalLen, len(local.DF))
	}

	// Install the same stats back (a one-peer federation's merge is the
	// identity) and confirm the ack counts every strategy.
	ack, err := c.InstallStats(context.Background(), &InstallWire{V: APIVersion, Strategies: stats.Strategies})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Installed != len(stats.Strategies) {
		t.Fatalf("installed %d, want %d", ack.Installed, len(stats.Strategies))
	}

	// Keyword norms answer the partition-local raw maximum.
	norms, err := c.KeywordNorms(context.Background(), "asthma")
	if err != nil {
		t.Fatal(err)
	}
	want := systems[name].Builder().RawTextMax("asthma")
	if norms.Norms[name] != want {
		t.Fatalf("norm = %v, want %v", norms.Norms[name], want)
	}
	if fixColl == nil {
		t.Fatal("fixture collection missing")
	}
}

// freshSystems builds one system per strategy over the shared fixture
// corpus, apart from the shared fixture systems, so a test may install
// statistics on them.
func freshSystems(t *testing.T) map[string]*core.System {
	t.Helper()
	testSystems(t)
	out := make(map[string]*core.System, 4)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		out[st.String()] = core.NewMulti(fixCorpus, fixColl, cfg)
	}
	return out
}

// rankings answers a few queries on every strategy: each result's root
// and score, in rank order.
func rankings(t *testing.T, systems map[string]*core.System) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for name, sys := range systems {
		for _, q := range []string{"asthma medications", "bronchial structure", "theophylline"} {
			resp, err := sys.Query(context.Background(), core.SearchRequest{Query: q, K: 20})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resp.Results {
				out[name+"/"+q] = append(out[name+"/"+q], fmt.Sprintf("%s=%v", r.Root, r.Score))
			}
		}
	}
	return out
}

// TestInstallZeroNRemovesOverlay: an installed body whose N is 0 counts
// no documents, so it removes the statistics overlay — at the install
// and when WireGeneration re-applies it to a new generation — and the
// answers equal those of builders that never had one.
func TestInstallZeroNRemovesOverlay(t *testing.T) {
	want := rankings(t, freshSystems(t))
	systems := freshSystems(t)
	h := NewHandler(HandlerConfig{Source: FixedSource(systems, 1), Logf: t.Logf})
	h.WireGeneration(systems)
	mux := http.NewServeMux()
	h.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	install := func(n int) {
		t.Helper()
		body := &InstallWire{V: APIVersion, Strategies: map[string]StrategyStatsWire{}}
		for name, sys := range systems {
			local := sys.Builder().LocalTextStats()
			df := map[string]int{}
			for term, d := range local.DF {
				df[term] = d + 3
			}
			body.Strategies[name] = StrategyStatsWire{N: n, TotalLen: 7 * local.TotalLen, DF: df}
		}
		if _, err := c.InstallStats(context.Background(), body); err != nil {
			t.Fatal(err)
		}
	}
	install(10 * fixCorpus.Len())
	if reflect.DeepEqual(rankings(t, systems), want) {
		t.Fatal("a skewed install left every answer as it was; the check below would prove nothing")
	}
	install(0)
	if got := rankings(t, systems); !reflect.DeepEqual(got, want) {
		t.Errorf("after an install with N 0 the answers differ from builders without an overlay")
	}
	next := freshSystems(t)
	h.WireGeneration(next)
	if got := rankings(t, next); !reflect.DeepEqual(got, want) {
		t.Errorf("a generation wired after an install with N 0 answers unlike builders without an overlay")
	}
}

// TestFragmentHydration: the owning peer must answer snippet and
// fragment hydration for a result it served.
func TestFragmentHydration(t *testing.T) {
	systems := testSystems(t)
	_, _, c := newTestPeer(t, Options{})
	name := ontoscore.StrategyRelationships.String()
	sys := systems[name]

	resp, err := sys.Query(context.Background(), core.SearchRequest{Query: "asthma", K: 1})
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("seed query failed: %v (%d results)", err, len(resp.Results))
	}
	res := resp.Results[0]
	req := FragmentRequest{Root: res.Root.String(), Strategy: name, Snippet: true, Fragment: true}
	for _, m := range res.Matches {
		req.Matches = append(req.Matches, m.ID.String()+"|"+m.Keyword)
	}
	got, err := c.Fragment(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found {
		t.Fatal("fragment not found")
	}
	if got.Fragment != sys.Fragment(res) {
		t.Error("fragment mismatch")
	}
	if got.Snippet != sys.Snippet(res) {
		t.Errorf("snippet %q, want %q", got.Snippet, sys.Snippet(res))
	}

	// A dewey nobody owns answers found=false, not an error.
	missing, err := c.Fragment(context.Background(), FragmentRequest{Root: "999999.1", Strategy: name})
	if err != nil {
		t.Fatal(err)
	}
	if missing.Found {
		t.Error("expected found=false for unknown dewey")
	}
}

// TestSearchBodyCap: an over-limit request body must answer 413 with a
// JSON error body, not a hang or a truncated read.
func TestSearchBodyCap(t *testing.T) {
	systems := testSystems(t)
	h := NewHandler(HandlerConfig{Source: FixedSource(systems, 1), MaxSearchBody: 256})
	mux := http.NewServeMux()
	h.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	big := SearchRequestWire{V: APIVersion, Strategy: "XRANK", Keywords: []string{strings.Repeat("x", 4096)}}
	buf, _ := json.Marshal(big)
	resp, err := http.Post(srv.URL+PathSearch, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var we errorWire
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error == "" {
		t.Fatalf("413 body is not a JSON error: %v %q", err, we.Error)
	}
}

// TestVersionGate: a request from a future wire version is refused.
func TestVersionGate(t *testing.T) {
	_, srv, _ := newTestPeer(t, Options{})
	buf, _ := json.Marshal(SearchRequestWire{V: APIVersion + 1, Strategy: "XRANK", Keywords: []string{"x"}})
	resp, err := http.Post(srv.URL+PathSearch, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestDeadlineHeaderRoundTrip: the absolute deadline survives the
// header encoding, and malformed values degrade to "no deadline".
func TestDeadlineHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	want := time.Now().Add(250 * time.Millisecond).UTC()
	SetDeadlineHeader(h, want, true)
	got, ok := ParseDeadlineHeader(h)
	if !ok || !got.Equal(want.Truncate(time.Nanosecond)) {
		t.Fatalf("round trip: got %v ok=%v, want %v", got, ok, want)
	}
	h.Set(DeadlineHeader, "not-a-time")
	if _, ok := ParseDeadlineHeader(h); ok {
		t.Fatal("malformed deadline parsed")
	}
	if _, ok := ParseDeadlineHeader(http.Header{}); ok {
		t.Fatal("absent deadline parsed")
	}
}

// TestDeadlinePropagation: a peer whose search overruns the X-Deadline
// must answer with a timeout status rather than serving past it.
func TestDeadlinePropagation(t *testing.T) {
	systems := testSystems(t)
	h := NewHandler(HandlerConfig{Source: FixedSource(systems, 1)})
	h.WireGeneration(systems)
	mux := http.NewServeMux()
	h.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	buf, _ := json.Marshal(SearchRequestWire{
		V: APIVersion, Strategy: "XRANK", Keywords: []string{"asthma"}, K: 5,
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+PathSearch, bytes.NewReader(buf))
	// A deadline already in the past: the query context is born expired.
	SetDeadlineHeader(req.Header, time.Now().Add(-time.Second), true)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}
