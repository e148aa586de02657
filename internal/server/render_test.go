package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/serving"
)

// cachedOutcome is the result-cache entry a default-strategy search for
// rawQ at k answers from on the active generation.
func cachedOutcome(t *testing.T, s *Server, rawQ string, k int) SearchOutcome {
	t.Helper()
	req := serving.Request{
		Strategy: ontoscore.StrategyRelationships.String(),
		Query:    query.Normalize(rawQ),
		K:        query.ClampK(k, s.cfg.Query.K),
		Epoch:    s.epoch(s.gen.Load()),
	}
	out, ok := s.svc.Cache().Get(req.Key())
	if !ok {
		t.Fatalf("no cache entry for %q at k=%d", rawQ, k)
	}
	return out
}

// A spliced string is byte for byte what encoding/json writes for it.
func TestAppendJSONString(t *testing.T) {
	cases := []string{"", "asthma medications", `"quoted" \ back`, "<b>&amp;</b>",
		"\u2028\u2029", "\ufffd", "caf\u00e9 \U0001F600", "\xff", "a\xc3", "\xed\xa0\x80", "\x7f"}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for r := rune(0x80); r < 0x3000; r += 7 {
		cases = append(cases, string(r), "a"+string(r)+"\xfe")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
	if !utf8.ValidString(string(appendJSONString(nil, "\xff\xfe"))) {
		t.Error("invalid UTF-8 passed through")
	}
}

// A miss keeps no rendered bytes: after N distinct misses no cached
// outcome holds a memo; after one hit exactly that entry does, and its
// later hits answer the same body.
func TestMissRetainsNoBody(t *testing.T) {
	s, _ := testServer(t)
	const n = 6
	for k := 1; k <= n; k++ {
		if rec := get(t, s, fmt.Sprintf("/search?q=asthma&k=%d", k)); rec.Code != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, rec.Code)
		}
	}
	stored := func() []int {
		var ks []int
		for k := 1; k <= n; k++ {
			if cachedOutcome(t, s, "asthma", k).memo.load() != nil {
				ks = append(ks, k)
			}
		}
		return ks
	}
	if got := stored(); len(got) != 0 {
		t.Fatalf("memos after %d misses at k=%v, want none", n, got)
	}
	hit := get(t, s, "/search?q=asthma&k=4")
	if got := stored(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("memos after one hit at k=%v, want [4]", got)
	}
	again := get(t, s, "/search?q=asthma&k=4")
	if a, b := withoutRequestFields(hit.Body.Bytes()), withoutRequestFields(again.Body.Bytes()); !bytes.Equal(a, b) {
		t.Errorf("memo hit differs from the storing render:\n%s\n%s", a, b)
	}
}

// An encode failure is the JSON 500 and stores nothing, even on the
// render that would have stored.
func TestSearchEncodeFailureStoresNothing(t *testing.T) {
	out := SearchOutcome{Results: []core.Result{{Score: math.NaN()}}, memo: new(renderMemo)}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		writeSearch(rec, out, &searchReply{query: "asthma", strategy: "Relationships", k: 1})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("render %d: status = %d, want 500 (body %q)", i+1, rec.Code, rec.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.HasPrefix(e.Error, "encode response: ") {
			t.Fatalf("render %d: body %q, want an encode response error", i+1, rec.Body.String())
		}
	}
	if out.memo.load() != nil {
		t.Error("a failed render stored a memo")
	}
}

// Eight first hits of one fresh entry race to store its memo: every
// body equals the miss's apart from handler_us and trace_id, and the
// entry ends up holding one memo. Run under -race.
func TestSearchMemoConcurrentHits(t *testing.T) {
	s, _ := testServer(t)
	const path = "/search?q=asthma+medications&k=5"
	miss := get(t, s, path)
	if miss.Code != http.StatusOK {
		t.Fatalf("status = %d", miss.Code)
	}
	want := withoutRequestFields(miss.Body.Bytes())
	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
				return
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if got := withoutRequestFields(b); !bytes.Equal(got, want) {
			t.Errorf("hit %d differs from the miss:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if cachedOutcome(t, s, "asthma medications", 5).memo.load() == nil {
		t.Error("no memo stored after eight hits")
	}
}

var (
	handlerUSField = regexp.MustCompile(`"handler_us":\d+`)
	traceIDField   = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// withoutRequestFields blanks a /search body's per-request values.
func withoutRequestFields(body []byte) []byte {
	body = handlerUSField.ReplaceAll(body, []byte(`"handler_us":0`))
	return traceIDField.ReplaceAll(body, []byte(`"trace_id":""`))
}
