package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oldStrategyStats is a strategy's statistics as a peer or coordinator
// of an older release encodes and decodes them: with the ElemRank
// normalizer ("ranks_max") this release no longer exchanges.
type oldStrategyStats struct {
	N        int            `json:"n"`
	TotalLen int64          `json:"total_len"`
	DF       map[string]int `json:"df"`
	RanksMax float64        `json:"ranks_max"`
}

type oldStats struct {
	V          int                         `json:"v"`
	Documents  int                         `json:"documents"`
	Generation uint64                      `json:"generation"`
	Strategies map[string]oldStrategyStats `json:"strategies"`
}

// The statistics exchange stays compatible with an older release in
// both directions: this release's coordinator decodes an old peer's
// stats body (its "ranks_max" ignored) and its peer accepts an old
// coordinator's install body, while an old-shaped decoder reads this
// release's bodies, which carry no "ranks_max", as 0. That holds only
// while no decoder in this package or internal/server rejects unknown
// fields, which the last check pins.
func TestStatsWireCompatibleWithRanksMax(t *testing.T) {
	ctx := context.Background()

	const oldBody = `{"v":1,"documents":3,"generation":7,"strategies":` +
		`{"Relationships":{"n":3,"total_len":40,"df":{"asthma":2},"ranks_max":3.5}}}`
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, oldBody)
	}))
	defer old.Close()
	oc, err := NewClient(old.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	got, err := oc.Stats(ctx)
	if err != nil {
		t.Fatalf("an old peer's stats body: %v", err)
	}
	if sw := got.Strategies["Relationships"]; sw.N != 3 || sw.TotalLen != 40 || sw.DF["asthma"] != 2 {
		t.Fatalf("an old peer's stats decoded as %+v", sw)
	}

	_, srv, c := newTestPeer(t, Options{})
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(srv.URL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("ranks_max")) {
		t.Fatalf("this release's stats body carries ranks_max: %.200s", raw)
	}
	var asOld oldStats
	if err := json.Unmarshal(raw, &asOld); err != nil {
		t.Fatal(err)
	}
	for name, sw := range asOld.Strategies {
		if sw.RanksMax != 0 || sw.N != stats.Strategies[name].N {
			t.Fatalf("%s read by an old decoder: %+v", name, sw)
		}
	}

	// An old coordinator installs the merged statistics with ranks_max
	// in every strategy (here the peer's own, so the install changes
	// nothing the shared fixture's other tests see).
	install := struct {
		V          int                         `json:"v"`
		Strategies map[string]oldStrategyStats `json:"strategies"`
	}{V: APIVersion, Strategies: map[string]oldStrategyStats{}}
	for name, sw := range stats.Strategies {
		install.Strategies[name] = oldStrategyStats{N: sw.N, TotalLen: sw.TotalLen, DF: sw.DF, RanksMax: 3.5}
	}
	body, err := json.Marshal(install)
	if err != nil {
		t.Fatal(err)
	}
	res, err = http.Post(srv.URL+PathStats, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack InstallAckWire
	err = json.NewDecoder(res.Body).Decode(&ack)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK || ack.Installed != len(stats.Strategies) {
		t.Fatalf("an old coordinator's install: status %d, ack %+v, err %v", res.StatusCode, ack, err)
	}

	for _, dir := range []string{".", filepath.Join("..", "server")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(src, []byte("DisallowUnknownFields")) {
				t.Errorf("%s rejects unknown JSON fields: peers of another release would stop decoding", f)
			}
		}
	}
}
