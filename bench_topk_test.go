// Benchmarks for the block-max top-k merge (WAND-style pruning) and
// the TestWriteTopKBenchReport regenerator for BENCH_TOPK.json, the
// recorded evidence for the top-k acceptance criteria.
package xontorank

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/dil"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// topkWorkload builds conjunction lists with a realistic (BM25-ish)
// heavy-tailed per-document score profile: a sparse set of "hot"
// documents scores near 1, the bulk scores an order of magnitude
// lower. Hot documents are clustered so most 128-posting blocks are
// all-cold — that is the shape that makes block maxima selective;
// under uniform per-posting scores every block's maximum sits near
// the distribution maximum and no block-granular bound can exclude
// anything, which is why BenchmarkDILMerge's uniform shapes barely
// prune. "uniform" and "skewed" refer to the list shapes, as in
// BenchmarkDILMerge: uniform is nkw equally long lists over a shared
// document set; skewed adds a rare first keyword.
func topkWorkload(nkw int, skewed bool) []dil.List {
	const (
		docs     = 6000
		perDoc   = 6
		hotRun   = 8   // contiguous hot documents per cluster: one run spans ~1 block
		hotGap   = 512 // documents between cluster starts (~96 hot docs total)
		rareDocs = 40
	)
	rng := rand.New(rand.NewSource(int64(nkw)*2 + int64(b2i(skewed))))
	scale := func(doc int32) float64 {
		if doc%hotGap < hotRun {
			return 1.0
		}
		return 0.05
	}
	build := func(step int) dil.List {
		l := make(dil.List, 0, docs/step*perDoc)
		for doc := int32(0); doc < docs; doc += int32(step) {
			for j := 0; j < perDoc; j++ {
				l = append(l, dil.Posting{
					ID:    xmltree.Dewey{doc, int32(j % 3), int32(rng.Intn(4))},
					Score: scale(doc) * float64(1+rng.Intn(1000)) / 1000,
				})
			}
		}
		l.Sort()
		return l
	}
	lists := make([]dil.List, nkw)
	for i := range lists {
		lists[i] = build(1)
	}
	if skewed {
		lists[0] = build(docs / rareDocs)
	}
	return lists
}

// BenchmarkTopKMerge compares the exhaustive fast merge against the
// block-max top-k merge at several k over both workload shapes.
func BenchmarkTopKMerge(b *testing.B) {
	for _, shape := range []string{"uniform", "skewed"} {
		lists := topkWorkload(3, shape == "skewed")
		cls := compactAll(lists)
		run := func(name string, merge func() []query.Result) {
			b.Run(fmt.Sprintf("%s/%s", shape, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					merge()
				}
			})
		}
		run("exhaustive", func() []query.Result { return query.RunCompactLists(cls, 0.5, 0) })
		for _, k := range []int{1, 10, 100} {
			k := k
			run(fmt.Sprintf("topk/k=%d", k), func() []query.Result {
				return query.RunCompactLists(cls, 0.5, k)
			})
		}
	}
}

// TestWriteTopKBenchReport regenerates BENCH_TOPK.json, the recorded
// evidence for the top-k acceptance criterion (>= 5x over the
// exhaustive fast merge on uniform conjunctions at k=10). Gated so
// normal test runs stay fast:
//
//	BENCH_TOPK=1 go test -run TestWriteTopKBenchReport .
//
// or `make bench-topk-report`.
func TestWriteTopKBenchReport(t *testing.T) {
	if os.Getenv("BENCH_TOPK") == "" {
		t.Skip("set BENCH_TOPK=1 to regenerate BENCH_TOPK.json")
	}

	type row struct {
		K             int     `json:"k"`
		Shape         string  `json:"shape"`
		NsExhaustive  int64   `json:"ns_per_op_exhaustive"`
		NsTopK        int64   `json:"ns_per_op_topk"`
		Speedup       float64 `json:"speedup_topk_vs_exhaustive"`
		PostingsExh   int64   `json:"postings_scored_exhaustive"`
		PostingsTopK  int64   `json:"postings_scored_topk"`
		DocsSkipped   int64   `json:"docs_skipped_topk"`
		BlocksSkipped int64   `json:"blocks_skipped_topk"`
	}
	report := struct {
		Description string `json:"description"`
		CPU         string `json:"cpu"`
		GoVersion   string `json:"go_version"`
		TopK        []row  `json:"topk"`
	}{
		Description: "Block-max top-k merge (WAND-style threshold pruning) vs the " +
			"exhaustive fast merge over block-compressed lists, heavy-tailed " +
			"per-document scores; shapes as in BenchmarkDILMerge (uniform: equal-length " +
			"shared-document lists; skewed: one rare keyword); " +
			"regenerate with `make bench-topk-report`",
		CPU:       runtime.GOARCH,
		GoVersion: runtime.Version(),
	}

	bench := func(merge func() []query.Result) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				merge()
			}
		})
		return r.NsPerOp()
	}
	counters := func(merge func() []query.Result) (postings, docsSkipped, blocksSkipped int64) {
		before := query.MergeCountersSnapshot()
		merge()
		after := query.MergeCountersSnapshot()
		return after.Postings - before.Postings,
			after.DocsSkipped - before.DocsSkipped,
			after.BlocksSkipped - before.BlocksSkipped
	}

	for _, shape := range []string{"uniform", "skewed"} {
		lists := topkWorkload(3, shape == "skewed")
		cls := compactAll(lists)
		exhaustive := func() []query.Result { return query.RunCompactLists(cls, 0.5, 0) }
		nsExh := bench(exhaustive)
		pExh, _, _ := counters(exhaustive)
		for _, k := range []int{1, 10, 100} {
			k := k
			topk := func() []query.Result { return query.RunCompactLists(cls, 0.5, k) }
			r := row{K: k, Shape: shape, NsExhaustive: nsExh, PostingsExh: pExh}
			r.NsTopK = bench(topk)
			r.PostingsTopK, r.DocsSkipped, r.BlocksSkipped = counters(topk)
			r.Speedup = round2(float64(r.NsExhaustive) / float64(r.NsTopK))
			report.TopK = append(report.TopK, r)
			if shape == "uniform" && k == 10 && r.Speedup < 5 {
				t.Errorf("uniform k=10: top-k speedup %.2fx < 5x acceptance bar", r.Speedup)
			}
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_TOPK.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_TOPK.json (%d rows)", len(report.TopK))
}

// round2 truncates a ratio to two decimals for the committed reports.
func round2(f float64) float64 { return float64(int64(f*100)) / 100 }
