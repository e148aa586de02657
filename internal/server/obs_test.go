package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/obs"
)

// Acceptance: /search?debug=trace answers with the request's span
// tree, and every hot-path stage — handler, serving cache, keyword
// resolution, DIL build, OntoScore propagation — appears with a
// non-zero duration.
func TestSearchDebugTrace(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, `/search?q=asthma+medications&k=3&debug=trace`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	header := rec.Header().Get("X-Trace-Id")
	if header == "" {
		t.Fatal("no X-Trace-Id header")
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != header {
		t.Errorf("trace_id %q != X-Trace-Id %q", resp.TraceID, header)
	}
	if resp.Trace == nil {
		t.Fatal("debug=trace returned no trace")
	}
	if resp.Trace.Name != "http.request" {
		t.Errorf("root span = %q, want http.request", resp.Trace.Name)
	}
	if resp.Trace.TraceID != header {
		t.Errorf("tree trace_id %q != X-Trace-Id %q", resp.Trace.TraceID, header)
	}
	for _, name := range []string{
		"http.request",
		"serving.search",
		"serving.cache",
		"query.search",
		"query.resolve_keywords",
		"query.keyword",
		"dil.build_keyword",
		"ontoscore.propagate",
		"query.dil_merge",
		"core.hydrate",
	} {
		sp := resp.Trace.Find(name)
		if sp == nil {
			t.Errorf("span %q missing from trace", name)
			continue
		}
		if sp.DurationUS < 1 {
			t.Errorf("span %q duration %dus, want >= 1", name, sp.DurationUS)
		}
	}
	// The merge span records which implementation ran and, on the fast
	// path, how much work the loser-tree merge actually did.
	if sp := resp.Trace.Find("query.dil_merge"); sp != nil {
		if sp.Attrs["merge"] != "topk" {
			t.Errorf(`merge span attr merge = %v, want "topk"`, sp.Attrs["merge"])
		}
		if _, ok := sp.Attrs["postings"]; !ok {
			t.Error("merge span missing postings attribute")
		}
	}
}

// Every /search response — traced or not — carries an X-Trace-Id
// header matching the body's trace_id.
func TestSearchTraceIDAlways(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, `/search?q=asthma&k=2`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	header := rec.Header().Get("X-Trace-Id")
	if len(header) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", header)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != header {
		t.Errorf("body trace_id %q != header %q", resp.TraceID, header)
	}
	if resp.Trace != nil {
		t.Error("untraced request returned a span tree")
	}
}

// Golden wire-format test: the exact top-level key set of a /search
// response, its timing keys, and its per-result keys, for the plain
// answer and each optional part. A change here is a wire-format change
// and must bump the "v" field. Every body is compact JSON whose
// Content-Length matches its length, and is byte for byte what
// encoding/json writes for its own decoded response: each shape is
// asked three times (the miss, the render that stores the plain
// shape's memo, and a memo hit), on a fresh server per shape.
func TestSearchWireFormat(t *testing.T) {
	const base = "degraded,info,k,pruning,query,results,strategy,timing,trace_id,v"
	const result = "document,id,matches,path,score"
	for _, tc := range []struct {
		name, params, top, result string
	}{
		{"plain", "", base, result},
		{"snippets", "&snippets=1", base, "document,id,matches,path,score,snippet"},
		{"fragments", "&fragments=1", base, "document,fragment,id,matches,path,score"},
		{"group", "&group=1", "degraded,groups,info,k,pruning,query,results,strategy,timing,trace_id,v", result},
		{"trace", "&debug=trace", "degraded,info,k,pruning,query,results,strategy,timing,trace,trace_id,v", result},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testServer(t)
			for i := 0; i < 3; i++ {
				checkWireFormat(t, s, tc.params, tc.top, tc.result)
			}
			stored := cachedOutcome(t, s, "asthma medications", 3).memo.load() != nil
			if want := tc.params == ""; stored != want {
				t.Errorf("memo stored = %v, want %v", stored, want)
			}
		})
	}
	t.Run("escaped queries", func(t *testing.T) {
		s, _ := testServer(t)
		for _, q := range []string{"asthma <b>", "asthma & medications", `"asthma" medications`,
			"asthma\u2028medications", "asthma\xff"} {
			for i := 0; i < 3; i++ {
				checkSearchBody(t, s, "/search?q="+url.QueryEscape(q)+"&k=3", q)
			}
		}
		if got := get(t, s, "/search?q=asthma%FF&k=3").Body.String(); !strings.Contains(got, `"query":"asthma\ufffd"`) {
			t.Errorf("invalid UTF-8 byte not echoed as \\ufffd: %.80s", got)
		}
	})
	t.Run("one key, two spellings", func(t *testing.T) {
		s, _ := testServer(t)
		for _, q := range []string{"Asthma", "asthma ", "Asthma", "asthma "} {
			resp, _ := checkSearchBody(t, s, "/search?q="+url.QueryEscape(q)+"&k=3", q)
			if resp.Query != q {
				t.Errorf("query = %q, want the request's own %q", resp.Query, q)
			}
		}
		if hits := s.svc.Stats().Snapshot().CacheHits; hits != 3 {
			t.Errorf("cache hits = %d, want 3 (both spellings share one entry)", hits)
		}
		if cachedOutcome(t, s, "asthma", 3).memo.load() == nil {
			t.Error("shared entry holds no memo after two hits")
		}
	})
	t.Run("reload in between", func(t *testing.T) {
		s, docs, ont := reloadFixture(t)
		const q = "asthma theophylline"
		path := "/search?q=" + url.QueryEscape(q) + "&k=10"
		hasFig1 := func(resp SearchResponse) bool {
			for _, r := range resp.Results {
				if r.Document == "figure-1" {
					return true
				}
			}
			return false
		}
		for i := 0; i < 3; i++ {
			if resp, _ := checkSearchBody(t, s, path, q); hasFig1(resp) {
				t.Fatal("figure-1 present before it was ingested")
			}
		}
		fig1, err := cda.GenerateFigure1(ont)
		if err != nil {
			t.Fatal(err)
		}
		writeDoc(t, docs, fig1)
		if _, err := s.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if resp, _ := checkSearchBody(t, s, path, q); !hasFig1(resp) {
				t.Fatalf("request %d after the reload served the old memo: figure-1 missing", i+1)
			}
		}
	})
}

// checkSearchBody asks s for path, whose raw q is rawQ, and checks the
// body is byte for byte what encoding/json writes for the response it
// decodes to, with rawQ echoed as query and trace_id equal to the
// X-Trace-Id header. It returns the decoded response.
func checkSearchBody(t *testing.T, s *Server, path, rawQ string) (SearchResponse, []byte) {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status = %d body = %s", path, rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length = %q, body is %d bytes", path, cl, len(body))
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: body does not decode into SearchResponse: %v", path, err)
	}
	if resp.TraceID == "" || resp.TraceID != rec.Header().Get("X-Trace-Id") {
		t.Errorf("%s: trace_id %q, X-Trace-Id %q", path, resp.TraceID, rec.Header().Get("X-Trace-Id"))
	}
	// Decoding maps an invalid UTF-8 byte to U+FFFD; the echo is of the
	// raw q.
	resp.Query = rawQ
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s: body differs from encoding/json's\n got: %s\nwant: %s", path, body, want.Bytes())
	}
	return resp, body
}

// checkWireFormat asks s for the asthma medications search with params
// and checks its body (checkSearchBody) and its key sets against top
// (top level) and result (first result).
func checkWireFormat(t *testing.T, s *Server, params, top, result string) {
	t.Helper()
	_, body := checkSearchBody(t, s, `/search?q=asthma+medications&k=3`+params, "asthma medications")
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if compact.Len() != len(body)-1 { // Encode's trailing newline
		t.Errorf("body is not compact JSON: %d bytes, %d compacted", len(body), compact.Len())
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if got := jsonKeys(raw); got != top {
		t.Errorf("top-level keys = %s, want %s", got, top)
	}
	var pruning map[string]json.RawMessage
	if err := json.Unmarshal(raw["pruning"], &pruning); err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(pruning), "blocks_skipped,docs_skipped,early_terminated,postings_scored"; got != want {
		t.Errorf("pruning keys = %s, want %s", got, want)
	}
	var v int
	if err := json.Unmarshal(raw["v"], &v); err != nil || v != 1 {
		t.Errorf("v = %s, want 1", raw["v"])
	}
	var timing map[string]json.RawMessage
	if err := json.Unmarshal(raw["timing"], &timing); err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(timing), "handler_us,hydrate_us,parse_us,search_us,total_us"; got != want {
		t.Errorf("timing keys = %s, want %s", got, want)
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(raw["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results to check the wire format of")
	}
	if got := jsonKeys(results[0]); got != result {
		t.Errorf("result keys = %s, want %s", got, result)
	}
	var matches []map[string]json.RawMessage
	if err := json.Unmarshal(results[0]["matches"], &matches); err != nil || len(matches) == 0 {
		t.Fatalf("matches = %s", results[0]["matches"])
	}
	if got, want := jsonKeys(matches[0]), "id,keyword,path,score"; got != want {
		t.Errorf("match keys = %s, want %s", got, want)
	}
	var total int64
	if err := json.Unmarshal(timing["total_us"], &total); err != nil || total < 1 {
		t.Errorf("total_us = %s, want >= 1", timing["total_us"])
	}
}

// jsonKeys lists an object's keys, sorted and comma-joined.
func jsonKeys(m map[string]json.RawMessage) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// Concurrent traced searches must never share identity: trace IDs are
// unique per request, and within a trace every span ID is unique. Run
// with -race to also catch unsynchronized span mutation.
func TestConcurrentTracedSearchesDistinctSpans(t *testing.T) {
	s, _ := testServer(t)
	const n = 12
	trees := make([]*obs.SpanTree, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct queries so no request can ride another's flight.
			rec := get(t, s, fmt.Sprintf(`/search?q=asthma&k=%d&debug=trace`, 1+i))
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
				return
			}
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			trees[i] = resp.Trace
		}(i)
	}
	wg.Wait()
	seenTraces := make(map[string]bool)
	for i, tree := range trees {
		if tree == nil {
			t.Fatalf("request %d returned no trace", i)
		}
		if seenTraces[tree.TraceID] {
			t.Errorf("trace ID %s issued twice", tree.TraceID)
		}
		seenTraces[tree.TraceID] = true
		seenSpans := make(map[uint64]bool)
		var walk func(n *obs.SpanTree)
		walk = func(n *obs.SpanTree) {
			if seenSpans[n.SpanID] {
				t.Errorf("trace %s: span ID %d appears twice", tree.TraceID, n.SpanID)
			}
			seenSpans[n.SpanID] = true
			for j := range n.Children {
				walk(&n.Children[j])
			}
		}
		walk(tree)
	}
}

// /metrics serves the Prometheus text exposition with the search
// latency histogram from the obs registry; the legacy JSON shape
// survives under ?format=json (covered by TestMetricsEndpoint).
func TestMetricsPrometheus(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, `/search?q=asthma+medications&k=3`)
	get(t, s, `/search?q=asthma+medications&k=3`)
	rec := get(t, s, `/metrics`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE xontorank_search_latency_seconds histogram",
		`xontorank_search_latency_seconds_bucket{le="0.0005"}`,
		`xontorank_search_latency_seconds_bucket{le="+Inf"}`,
		"xontorank_search_latency_seconds_count",
		"xontorank_search_requests_total",
		"xontorank_search_cache_hits_total",
		"# TYPE xontorank_generation gauge",
		"xontorank_http_requests_total",
		`path="/search"`,
		"# TYPE query_merge_postings_total counter",
		"# TYPE query_merge_blocks_skipped_total counter",
		"# TYPE xontorank_go_gc_cpu_seconds_total counter",
		"# TYPE xontorank_go_heap_live_bytes gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The two searches above must have been observed by the histogram.
	var count int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "xontorank_search_latency_seconds_count") {
			fmt.Sscanf(strings.Fields(line)[1], "%d", &count)
		}
	}
	if count < 2 {
		t.Errorf("latency histogram count = %d, want >= 2", count)
	}
	// The runtime gauges read the process: some heap is live, once a
	// collection has run.
	runtime.GC()
	var live float64
	for _, line := range strings.Split(get(t, s, `/metrics`).Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "xontorank_go_heap_live_bytes" {
			live, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if live <= 0 {
		t.Errorf("xontorank_go_heap_live_bytes = %v after a collection, want > 0", live)
	}
	// The keyword-list gauge is the exact encoded size of what the
	// keyword caches hold: the lists of the keywords each strategy was
	// asked (the default Relationships above, Graph here), rebuilt and
	// encoded here.
	get(t, s, `/search?q=asthma+theophylline&strategy=Graph`)
	asked := map[string][]string{"Relationships": {"asthma", "medications"}, "Graph": {"asthma", "theophylline"}}
	var want int
	for st, sys := range s.gen.Load().systems {
		b := sys.Builder()
		for _, kw := range asked[st.String()] {
			want += dil.Compact(b.BuildKeyword(kw), b.IDs()).Bytes()
		}
	}
	if want == 0 {
		t.Fatal("no keyword built a list; the gauge check checks nothing")
	}
	got := -1.0
	for _, line := range strings.Split(get(t, s, `/metrics`).Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == `xontorank_memory_bytes{structure="keyword_lists"}` {
			got, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if got != float64(want) {
		t.Errorf(`xontorank_memory_bytes{structure="keyword_lists"} = %v, want %d`, got, want)
	}
}

// /debug/traces retains completed request traces in the ring buffer.
func TestDebugTracesEndpoint(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, `/search?q=asthma&k=2`)
	rec := get(t, s, `/debug/traces`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Completed uint64         `json:"completed"`
		Traces    []obs.SpanTree `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Completed < 1 || len(out.Traces) < 1 {
		t.Fatalf("completed = %d traces = %d, want >= 1 each", out.Completed, len(out.Traces))
	}
	found := false
	for i := range out.Traces {
		if out.Traces[i].Name == "http.request" && out.Traces[i].Find("query.search") != nil {
			found = true
		}
	}
	if !found {
		t.Error("no retained http.request trace contains a query.search span")
	}
}
