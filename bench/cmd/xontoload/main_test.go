package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/bench/trace"
	"repro/bench/workload"
)

// chdirRoot moves the test to the repository root, where the harness
// expects to run, and back when the test ends.
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	chdirRoot(t)
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `xontoload manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, group := range [][]metric{endToEnd, extras, perLayer} {
		for _, m := range group {
			if seen[m.Name] {
				t.Errorf("metric %s is declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workload.Names {
		if whys[w] == "" || len(whys[w]) > 200 {
			t.Errorf("workload %s needs a why of at most 200 characters", w)
		}
	}
}

func TestSpreadIsTheDriversRule(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	if got, want := spread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 || median([]float64{3, 1}) != 2 {
		t.Fatal("degenerate inputs")
	}
}

func writeResult(t *testing.T, name string, p50, qps, fail float64) string {
	t.Helper()
	f := resultFile{Runs: map[string][]*outcome{"hot": {
		{Correct: true, Metrics: map[string]float64{"p50_ms": p50, "qps": qps, "fail_ratio": fail}},
		{Correct: true, Metrics: map[string]float64{"p50_ms": p50 * 1.02, "qps": qps, "fail_ratio": fail}},
		{Correct: true, Metrics: map[string]float64{"p50_ms": p50 * 0.98, "qps": qps, "fail_ratio": fail}},
		// Runs that must not count: a late generator, failed requests, wrong answers.
		{Correct: true, Void: true, Metrics: map[string]float64{"p50_ms": p50 * 9, "qps": qps / 9}},
		{Correct: true, Failed: 1, Attempted: 10, Metrics: map[string]float64{"p50_ms": p50 * 9, "qps": qps / 9}},
		{Wrong: []string{"x"}, Metrics: map[string]float64{"p50_ms": p50 * 9, "qps": qps / 9}},
	}}}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAppliesTheBounds(t *testing.T) {
	base := writeResult(t, "base.json", 1.0, 1000, 0)
	var out bytes.Buffer
	for name, tc := range map[string]struct {
		p50, qps, fail float64
		regressed      bool
	}{
		"same":                {1.0, 1000, 0, false},
		"better":              {0.5, 2000, 0, false},
		"within bounds":       {1.0 * (1 + boundOf("p50_ms")*0.9), 1000 * (1 - boundOf("qps")*0.9), 0.0005, false},
		"slower":              {1.0 * (1 + boundOf("p50_ms")*1.2), 1000, 0, true},
		"lower throughput":    {1.0, 1000 * (1 - boundOf("qps")*1.2), 0, true},
		"new failed requests": {1.0, 1000, 0.002, true},
	} {
		cand := writeResult(t, "cand.json", tc.p50, tc.qps, tc.fail)
		out.Reset()
		err := cmdCompare([]string{base, cand}, &out)
		if (err != nil) != tc.regressed {
			t.Errorf("%s: compare returned %v\n%s", name, err, out.String())
		}
	}
}

func TestUnusableRunsAreNamed(t *testing.T) {
	ok := &outcome{Workload: "hot", Correct: true, Attempted: 10, Metrics: map[string]float64{"client.sched_lag_p99_ms": 0.2}}
	if why := ok.unusable(); why != "" {
		t.Errorf("a clean run is unusable: %s", why)
	}
	for name, o := range map[string]*outcome{
		"void":   {Correct: true, Void: true, Metrics: map[string]float64{"client.sched_lag_p99_ms": 1.7}},
		"failed": {Correct: true, Failed: 2, Attempted: 10},
		"wrong":  {Wrong: []string{"hot[3]: 9 results, want 10"}, Failed: 1, Attempted: 10},
	} {
		if o.unusable() == "" {
			t.Errorf("a %s run counts as usable", name)
		}
		if (o.broken() == "") != (name == "void") {
			t.Errorf("a %s run: broken() = %q", name, o.broken())
		}
	}
}

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// TestSmoke runs the harness end to end at toy size: every workload
// against a real xontoserve, one of them with the traced replay. It
// asserts structure and answers, never speed.
func TestSmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the harness reads the server's CPU time and memory from /proc")
	}
	chdirRoot(t)
	for _, wl := range workload.Names {
		traced, reported := "0", endToEnd
		if wl == "merge" {
			traced, reported = "1", perLayer
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", traced, "--quick"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", wl, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line of stdout is not the result: %v\n%s", wl, err, stdout.String())
		}
		if !res.Correct || res.Attempted < 1 {
			t.Fatalf("%s: correct=%v attempted=%d\n%s", wl, res.Correct, res.Attempted, stderr.String())
		}
		if len(res.Metrics) != len(reported) {
			t.Fatalf("%s: %d metrics reported, want %d", wl, len(res.Metrics), len(reported))
		}
		for _, m := range reported {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or in the wrong unit: %+v", wl, m.Name, got)
			}
		}
		if wl == "merge" {
			raw, err := os.ReadFile(filepath.Join("bench", "out", "trace-merge.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf trace.File
			if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
				t.Fatalf("trace file: %v, %d spans", err, len(tf.Spans))
			}
			names := map[string]bool{}
			for _, s := range tf.Spans {
				names[s.Name] = true
			}
			for _, want := range []string{"xmltree.ParseXML", "ingest.Run", "core.New", "server.NewServing", "server.ServeHTTP",
				"core.System.Query", "dil.Builder.BuildKeywordCtx", "ontoscore.Computer.ComputeCtx.graph", "server.ServeHTTP.ingest_put"} {
				if !names[want] {
					t.Errorf("trace has no %s span", want)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join("bench", "out", fmt.Sprintf("run-%d", os.Getpid()))); !os.IsNotExist(err) {
		t.Errorf("scratch directory left behind: %v", err)
	}
}
