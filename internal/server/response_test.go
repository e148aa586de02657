package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ontology"
)

// A value encoding/json rejects is answered with the JSON 500 contract,
// never as a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", rec.Code, rec.Body.String())
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body does not decode: %v (%q)", err, rec.Body.String())
	}
	if !strings.HasPrefix(e.Error, "encode response: ") {
		t.Errorf("error = %q, want an encode response error", e.Error)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
}

// BenchmarkSearchHit measures a /search cache hit end to end through
// ServeHTTP: the generation pin, the request span, the serving-layer
// lookup, and the body write from the entry's rendered bytes (two
// warm-up requests: the miss, then the hit that renders and keeps
// them), at k=10 and k=100.
func BenchmarkSearchHit(b *testing.B) {
	env, err := experiments.NewEnv(experiments.Medium)
	if err != nil {
		b.Fatal(err)
	}
	s := New(env.Corpus, ontology.MustCollection(env.Ont, ontology.LOINCFragment()), core.DefaultConfig())
	for _, k := range []int{10, 100} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			path := "/search?q=cardiac+arrest&k=" + strconv.Itoa(k)
			serve := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
				}
				return rec
			}
			serve() // the miss
			serve() // the first hit keeps the rendered body
			hits := s.Serving().Stats().Snapshot().CacheHits
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = serve().Body.Len()
			}
			b.ReportMetric(float64(bytes), "resp_bytes")
			if got := s.Serving().Stats().Snapshot().CacheHits - hits; got < int64(b.N) {
				b.Fatalf("cache hits = %d over %d requests", got, b.N)
			}
		})
	}
}
