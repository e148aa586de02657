package xontorank

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// deltaBenchEnv is one corpus scale for the live-ingestion benchmarks:
// a base corpus of `base` documents plus `extra` pre-rendered bodies
// standing in for documents arriving over /admin/ingest.
type deltaBenchEnv struct {
	coll   *ontology.Collection
	corpus *xmltree.Corpus
	bodies [][]byte
	names  []string
}

func newDeltaBenchEnv(tb testing.TB, base, extra int) *deltaBenchEnv {
	tb.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 42, ExtraConcepts: 300})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 42, NumDocuments: base + extra, ProblemsPerPatient: 3,
		MedicationsPerPatient: 3, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		tb.Fatal(err)
	}
	env := &deltaBenchEnv{corpus: xmltree.NewCorpus()}
	docs := g.GenerateCorpus().Docs()
	for _, d := range docs[:base] {
		env.corpus.Add(&xmltree.Document{Root: d.Root, Name: d.Name})
	}
	for _, d := range docs[base:] {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, d.Root); err != nil {
			tb.Fatal(err)
		}
		env.bodies = append(env.bodies, buf.Bytes())
		env.names = append(env.names, d.Name)
	}
	env.coll = ontology.MustCollection(ont, ontology.LOINCFragment())
	return env
}

// liveSystem wires a delta segment into a freshly built system the way
// server.EnableDelta does, plus a WAL in dir — the full ack path.
func (e *deltaBenchEnv) liveSystem(tb testing.TB, dir string) (*core.System, *delta.Segment, *delta.WAL) {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.Strategy = ontoscore.StrategyRelationships
	sys := core.NewMulti(e.corpus, e.coll, cfg)
	seg := delta.NewSegment(e.corpus, sys.Builder().LocalTextStats(), sys.Builder().Side(), delta.Config{
		Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL,
	})
	sys.SetOverlay(seg.Overlay(cfg.Strategy, -1, nil))
	sys.SetAuxDocs(seg)
	wal, err := delta.OpenWAL(dir+"/delta.wal", tb.Logf)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, seg, wal
}

// BenchmarkLiveIngest measures the acknowledged single-document write
// path (fsynced WAL append + delta apply) against growing base corpora
// — the corpus-size independence claim behind BENCH_DELTA.json.
func BenchmarkLiveIngest(b *testing.B) {
	for _, base := range []int{10, 40, 120} {
		env := newDeltaBenchEnv(b, base, 8)
		b.Run(fmt.Sprintf("docs=%d", base), func(b *testing.B) {
			_, seg, wal := env.liveSystem(b, b.TempDir())
			defer wal.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(env.bodies)
				op, err := wal.Append(delta.OpPut, env.names[j], env.bodies[j])
				if err != nil {
					b.Fatal(err)
				}
				if err := seg.Apply(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWriteDeltaBenchReport regenerates BENCH_DELTA.json: the
// ingest-to-searchable latency of the live write path across corpus
// sizes (it must not grow with the base corpus), the cost of a full
// index rebuild at each size for contrast, and the reload-path rebase
// cost as a function of delta size. Gated so normal runs stay fast:
//
//	BENCH_DELTA=1 go test -run TestWriteDeltaBenchReport .
//
// or `make bench-delta-report`.
func TestWriteDeltaBenchReport(t *testing.T) {
	if os.Getenv("BENCH_DELTA") == "" {
		t.Skip("set BENCH_DELTA=1 to regenerate BENCH_DELTA.json")
	}

	const deltaOps = 16
	type ingestRow struct {
		BaseDocs int `json:"base_docs"`
		Ops      int `json:"ops"`
		// Acked put: fsynced WAL append + segment apply + first search
		// observing the document.
		P50US int64 `json:"ingest_p50_us"`
		P99US int64 `json:"ingest_p99_us"`
		// Full rebuild of the single-strategy index over the same
		// corpus, for contrast (what the latency would be without the
		// delta path).
		RebuildMS int64 `json:"full_rebuild_ms"`
	}
	type rebaseRow struct {
		BaseDocs  int   `json:"base_docs"`
		DeltaDocs int   `json:"delta_docs"`
		RebaseMS  int64 `json:"rebase_ms"`
	}
	report := struct {
		Description string      `json:"description"`
		CPU         string      `json:"cpu"`
		GoVersion   string      `json:"go_version"`
		Ingest      []ingestRow `json:"ingest_latency_by_corpus_size"`
		Rebase      []rebaseRow `json:"reload_rebase_by_delta_size"`
	}{
		Description: "live single-document ingestion (fsynced WAL append + delta apply + " +
			"search visibility) vs base corpus size, full-rebuild cost for contrast, " +
			"and reload-path rebase cost vs delta size; " +
			"regenerate with `make bench-delta-report`",
		CPU:       runtime.GOARCH,
		GoVersion: runtime.Version(),
	}

	for _, base := range []int{10, 40, 120} {
		env := newDeltaBenchEnv(t, base, deltaOps)
		sys, seg, wal := env.liveSystem(t, t.TempDir())
		samples := make([]int64, 0, deltaOps)
		for j := 0; j < deltaOps; j++ {
			t0 := time.Now()
			op, err := wal.Append(delta.OpPut, env.names[j], env.bodies[j])
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.Apply(op); err != nil {
				t.Fatal(err)
			}
			// Visibility: one keyword search over the updated state.
			if _, err := sys.Query(context.Background(), core.SearchRequest{
				Query: "patient", K: 5,
			}); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, time.Since(t0).Microseconds())
		}
		wal.Close()
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

		t0 := time.Now()
		cfg := core.DefaultConfig()
		cfg.Strategy = ontoscore.StrategyRelationships
		_ = core.NewMulti(env.corpus, env.coll, cfg)
		rebuild := time.Since(t0)

		report.Ingest = append(report.Ingest, ingestRow{
			BaseDocs:  base,
			Ops:       deltaOps,
			P50US:     samples[len(samples)/2],
			P99US:     samples[len(samples)*99/100],
			RebuildMS: rebuild.Milliseconds(),
		})
	}

	// Rebase cost: what a reload pays to carry N live delta documents
	// across a generation swap.
	for _, deltaDocs := range []int{1, 8, 32} {
		env := newDeltaBenchEnv(t, 40, deltaDocs)
		sys, seg, wal := env.liveSystem(t, t.TempDir())
		for j := 0; j < deltaDocs; j++ {
			op, err := wal.Append(delta.OpPut, env.names[j], env.bodies[j])
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		t0 := time.Now()
		if err := seg.Rebase(env.corpus, sys.Builder().LocalTextStats(), sys.Builder().Side(), wal.Ops()); err != nil {
			t.Fatal(err)
		}
		rebase := time.Since(t0)
		wal.Close()
		report.Rebase = append(report.Rebase, rebaseRow{
			BaseDocs:  40,
			DeltaDocs: deltaDocs,
			RebaseMS:  rebase.Milliseconds(),
		})
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_DELTA.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_DELTA.json (%d ingest rows, %d rebase rows)",
		len(report.Ingest), len(report.Rebase))
}
