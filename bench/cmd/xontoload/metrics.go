package main

import (
	"encoding/json"

	"repro/bench/workload"
)

// metric is one named number the benchmark reports. Bound is the share
// of the baseline's value by which it may worsen before `compare`
// (and the driver, for end-to-end metrics) calls it a regression;
// Abs is the same as an absolute difference, for a ratio that is
// normally 0.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Abs    float64 `json:"-"`
}

// endToEnd is what a user of xontoserve sees, measured on every
// workload from the client's side of the socket with tracing off.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// extras are end-to-end numbers that exist on some workloads only (the
// driver's schema wants every end-to-end metric on every workload, so
// they cannot be in BENCHMARK.json) or are normally 0. They are in the
// table, in result.json, and under `compare`.
var extras = []metric{
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "reload_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Abs: 0.001},
	{Name: "client.write_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.writes", Unit: "count", Better: "higher"},
}

// perLayer is reported by the traced run; layers are the repo's
// package names, client.* and proc.* are the harness's own view.
var perLayer = []metric{
	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.limit_missed", Unit: "count", Better: "lower"},
	{Name: "client.warmup_s", Unit: "s", Better: "lower"},
	{Name: "proc.rss_ready_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.threads", Unit: "count", Better: "lower"},
	{Name: "xmltree.parse_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "ingest.run_s", Unit: "s", Better: "lower"},
	{Name: "core.new_s.xrank", Unit: "s", Better: "lower"},
	{Name: "core.new_s.graph", Unit: "s", Better: "lower"},
	{Name: "core.new_s.taxonomy", Unit: "s", Better: "lower"},
	{Name: "core.new_s.relationships", Unit: "s", Better: "lower"},
	{Name: "server.new_s", Unit: "s", Better: "lower"},
	{Name: "server.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serving.shed_429", Unit: "count", Better: "lower"},
	{Name: "serving.timeout_504", Unit: "count", Better: "lower"},
	{Name: "serving.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.search_us", Unit: "us", Better: "lower"},
	{Name: "core.hydrate_us", Unit: "us", Better: "lower"},
	{Name: "query.postings_scored", Unit: "count", Better: "lower"},
	{Name: "query.docs_skipped", Unit: "count", Better: "higher"},
	{Name: "query.blocks_skipped", Unit: "count", Better: "higher"},
	{Name: "query.early_term_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.results_per_req", Unit: "count", Better: "higher"},
	{Name: "query.merge_us.k10", Unit: "us", Better: "lower"},
	{Name: "query.merge_us.k100", Unit: "us", Better: "lower"},
	{Name: "query.merge_us.deep", Unit: "us", Better: "lower"},
	{Name: "dil.build_keyword_us.p50", Unit: "us", Better: "lower"},
	{Name: "dil.build_keyword_us.p95", Unit: "us", Better: "lower"},
	{Name: "dil.build_keyword_us.sum", Unit: "us", Better: "lower"},
	{Name: "dil.build_ir_us", Unit: "us", Better: "lower"},
	{Name: "dil.postings_per_keyword", Unit: "count", Better: "lower"},
	{Name: "ontoscore.compute_us.graph", Unit: "us", Better: "lower"},
	{Name: "ontoscore.compute_us.taxonomy", Unit: "us", Better: "lower"},
	{Name: "ontoscore.compute_us.relationships", Unit: "us", Better: "lower"},
	{Name: "ontoscore.concepts_scored", Unit: "count", Better: "lower"},
	{Name: "delta.put_us", Unit: "us", Better: "lower"},
	{Name: "delta.delete_us", Unit: "us", Better: "lower"},
	{Name: "delta.steady_read_us", Unit: "us", Better: "lower"},
	{Name: "delta.first_read_after_write_us", Unit: "us", Better: "lower"},
	{Name: "delta.dirty_read_ratio", Unit: "ratio", Better: "lower"},
	{Name: "delta.ryw_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long one run measures.
const runSeconds = 10

var whys = map[string]string{
	"hot":    "200-query Zipf pool inside the result cache: per-request overhead of server and serving, no query/dil/ontoscore work",
	"merge":  "2-3 co-occurring terms, result cache misses and keyword cache hits: the block-max merge, posting cursors and hydration (Fig. 11)",
	"cold":   "every distinct token once per strategy on a fresh server: keyword-cache misses, dil.Builder and OntoScore propagation (Table III)",
	"ingest": "the merge read mix beside a writer on -live-ingest: dirty-overlay reads, WAL fsync, then a reload with the delta pending",
}

// manifest renders BENCHMARK.json from the tables above, so the file
// the driver reads and the names the harness prints cannot drift.
func manifest() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/cmd/xontoload"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workload.Names {
		doc.Workloads = append(doc.Workloads, named{Name: w, Why: whys[w]})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
