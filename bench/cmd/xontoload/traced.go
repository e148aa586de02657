package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	xontorank "repro"
	"repro/bench/loadgen"
	"repro/bench/trace"
	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/ontoscore"
	"repro/internal/server"
	"repro/internal/serving"
)

// traceN is how many distinct leading requests of the workload's
// stream the in-process replay walks through every layer.
const traceN = 300

// deltaOps is how many admin operations the in-process delta probe
// performs (whole cycles of workload.Data.Writes).
const deltaOps = 25

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stream returns the first n requests of a workload's measured stream.
func stream(d *workload.Data, wl string, n int) []workload.Request {
	switch wl {
	case "hot":
		return d.Hot(n)
	case "merge":
		return d.Merge(n)
	case "cold":
		all := d.Cold()
		return all[:min(n, len(all))]
	default:
		return d.IngestReads(n)
	}
}

// serveOnce hands one request to the in-process server inside a span.
func serveOnce(rec *trace.Recorder, name string, req int, h http.Handler, method, uri string, body []byte) (span int, dur time.Duration, status int, resp []byte) {
	r := httptest.NewRequest(method, uri, bytes.NewReader(body))
	w := httptest.NewRecorder()
	span = rec.Start(name, 0, req)
	t0 := time.Now()
	h.ServeHTTP(w, r)
	dur = time.Since(t0)
	rec.End(span)
	return span, dur, w.Code, w.Body.Bytes()
}

// traced replays the workload in-process with a harness span around
// the public call into each layer, fills the per-layer metrics into m,
// and writes the spans to <out>/trace-<workload>.json. Wrong answers
// it notices (read-your-writes through the delta) are returned.
func (e *env) traced(ctx context.Context, sp spec, data *workload.Data, o *oracle, m map[string]float64) (wrong []string, err error) {
	rec := o.rec
	dataDir := e.dataDir()
	scratch := filepath.Join(e.run, "traced")

	// Set-up layers, in the order xontoserve runs them.
	files, err := filepath.Glob(filepath.Join(dataDir, "docs", "*.xml"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no documents under %s: %v", dataDir, err)
	}
	var parse []float64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		id := rec.Start("xmltree.ParseXML", 0, 0)
		_, perr := xontorank.ParseXML(bytes.NewReader(b))
		parse = append(parse, us(rec.End(id)))
		if perr != nil {
			return nil, fmt.Errorf("parse %s: %w", f, perr)
		}
	}
	m["xmltree.parse_us_per_doc"] = mean(parse)

	// The oracle ingested the data directory and built the systems the
	// answer check needed; build the rest and report what each took.
	m["ingest.run_s"] = o.ingestTook.Seconds()
	for _, st := range ontoscore.Strategies() {
		if _, err := o.system(st.String()); err != nil {
			return nil, err
		}
		m["core.new_s."+strings.ToLower(st.String())] = o.newTook[st.String()].Seconds()
	}

	id := rec.Start("server.NewServing", 0, 0)
	srv := server.NewServing(o.corpus, o.coll, core.DefaultConfig(), serving.DefaultConfig())
	m["server.new_s"] = rec.End(id).Seconds()
	srv.SetLogf(func(string, ...any) {})

	// The request replay: every distinct request among the first traceN
	// of the stream, through dil, ontoscore, core/query and server.
	var reqs []workload.Request
	seen := map[workload.Request]bool{}
	for _, rq := range stream(data, sp.workload, traceN) {
		if !seen[rq] {
			seen[rq] = true
			reqs = append(reqs, rq)
		}
	}
	if sp.workload == "merge" {
		// The workload's own warm-up, so that a first-seen request meets
		// the keyword cache the measured server had.
		rec.Enable(false)
		for _, rq := range data.MergeWarm() {
			if _, _, status, body := serveOnce(rec, "", 0, srv, "GET", rq.URI(), nil); status != 200 {
				return nil, fmt.Errorf("in-process warm-up %s: status %d: %s", rq.URI(), status, body)
			}
		}
		rec.Enable(true)
	}
	ontID := data.Ont.SystemID
	ontoStrategies := []ontoscore.Strategy{ontoscore.StrategyGraph, ontoscore.StrategyTaxonomy, ontoscore.StrategyRelationships}

	var build, buildIR, postings, concepts []float64
	compute := map[string][]float64{}
	var postingsScored, docsSkipped, blocksSkipped, earlyTerm, results []float64
	mergeUS := map[string][]float64{}
	var httpHit, overhead, respBytes, qTotal, qParse, qSearch, qHydrate []float64
	windows := []struct {
		name      string
		k, offset int
	}{{"k10", 10, 0}, {"k100", 100, 0}, {"deep", 10, 200}}
	probed := map[string]bool{}

	for i, rq := range reqs {
		rid := i + 1
		sys, err := o.system(rq.Strategy)
		if err != nil {
			return nil, err
		}
		for _, kw := range xontorank.ParseQuery(rq.Query) {
			key := rq.Strategy + "\x00" + string(kw)
			if probed[key] {
				continue
			}
			probed[key] = true
			id := rec.Start("dil.Builder.BuildKeywordCtx", 0, rid)
			list := sys.Builder().BuildKeywordCtx(ctx, string(kw))
			build = append(build, us(rec.End(id)))
			postings = append(postings, float64(len(list)))
			id = rec.Start("dil.Builder.BuildKeywordIRCtx", 0, rid)
			sys.Builder().BuildKeywordIRCtx(ctx, string(kw))
			buildIR = append(buildIR, us(rec.End(id)))
			for _, st := range ontoStrategies {
				comp := o.systems[st.String()].Builder().Computer(ontID)
				if comp == nil {
					return nil, fmt.Errorf("no OntoScore computer for system %q", ontID)
				}
				id = rec.Start("ontoscore.Computer.ComputeCtx."+strings.ToLower(st.String()), 0, rid)
				scores := comp.ComputeCtx(ctx, st, string(kw))
				compute[st.String()] = append(compute[st.String()], us(rec.End(id)))
				if st == ontoscore.StrategyRelationships {
					concepts = append(concepts, float64(len(scores)))
				}
			}
		}

		// core/query with warm keywords: the request's own window for
		// the pruning counters, then three fixed windows for the merge.
		query := func(name string, k, offset int) (*core.SearchResponse, error) {
			id := rec.Start(name, 0, rid)
			resp, err := sys.Query(ctx, core.SearchRequest{Query: rq.Query, K: k, Offset: offset})
			rec.End(id)
			if err == nil {
				rec.Derive(id, []string{"core.parse", "query.search", "core.hydrate"}, []time.Duration{
					time.Duration(resp.Timing.ParseUS) * time.Microsecond,
					time.Duration(resp.Timing.SearchUS) * time.Microsecond,
					time.Duration(resp.Timing.HydrateUS) * time.Microsecond})
			}
			return resp, err
		}
		if _, err := sys.Query(ctx, core.SearchRequest{Query: rq.Query, K: rq.K, Offset: rq.Offset}); err != nil {
			return nil, err
		}
		resp, err := query("core.System.Query", rq.K, rq.Offset)
		if err != nil {
			return nil, err
		}
		postingsScored = append(postingsScored, float64(resp.Pruning.PostingsScored))
		docsSkipped = append(docsSkipped, float64(resp.Pruning.DocsSkipped))
		blocksSkipped = append(blocksSkipped, float64(resp.Pruning.BlocksSkipped))
		if resp.Pruning.EarlyTerminated {
			earlyTerm = append(earlyTerm, 1)
		} else {
			earlyTerm = append(earlyTerm, 0)
		}
		results = append(results, float64(len(resp.Results)))
		for _, w := range windows {
			resp, err := query("core.System.Query."+w.name, w.k, w.offset)
			if err != nil {
				return nil, err
			}
			mergeUS[w.name] = append(mergeUS[w.name], float64(resp.Timing.SearchUS))
		}

		// server: a first-seen request (decode, serving miss, execute,
		// encode), then the same one again (serving hit).
		span, dur, status, body := serveOnce(rec, "server.ServeHTTP", rid, srv, "GET", rq.URI(), nil)
		if status != 200 {
			return nil, fmt.Errorf("in-process %s: status %d: %s", rq.URI(), status, body)
		}
		sb, err := parseSearch(body)
		if err != nil {
			return nil, err
		}
		t := sb.Timing
		rec.Derive(span, []string{"core.System.Query"}, []time.Duration{time.Duration(t.TotalUS) * time.Microsecond})
		overhead = append(overhead, us(dur)-float64(t.TotalUS))
		respBytes = append(respBytes, float64(len(body)))
		qTotal = append(qTotal, float64(t.TotalUS))
		qParse = append(qParse, float64(t.ParseUS))
		qSearch = append(qSearch, float64(t.SearchUS))
		qHydrate = append(qHydrate, float64(t.HydrateUS))
		_, dur, _, _ = serveOnce(rec, "server.ServeHTTP.hit", rid, srv, "GET", rq.URI(), nil)
		httpHit = append(httpHit, us(dur))
	}

	m["dil.build_keyword_us.p50"] = median(build)
	sort.Float64s(build)
	m["dil.build_keyword_us.p95"] = loadgen.Quantile(build, 0.95)
	m["dil.build_keyword_us.sum"] = mean(build) * float64(len(build))
	m["dil.build_ir_us"] = mean(buildIR)
	m["dil.postings_per_keyword"] = mean(postings)
	for _, st := range ontoStrategies {
		m["ontoscore.compute_us."+strings.ToLower(st.String())] = mean(compute[st.String()])
	}
	m["ontoscore.concepts_scored"] = mean(concepts)
	m["query.postings_scored"] = mean(postingsScored)
	m["query.docs_skipped"] = mean(docsSkipped)
	m["query.blocks_skipped"] = mean(blocksSkipped)
	m["query.early_term_ratio"] = mean(earlyTerm)
	m["query.results_per_req"] = mean(results)
	for _, w := range windows {
		m["query.merge_us."+w.name] = mean(mergeUS[w.name])
	}
	m["server.http_hit_us"] = median(httpHit)
	m["server.overhead_us"] = mean(overhead)
	m["server.resp_bytes"] = mean(respBytes)
	m["core.query_us"] = mean(qTotal)
	m["core.parse_us"] = mean(qParse)
	m["core.search_us"] = mean(qSearch)
	m["core.hydrate_us"] = mean(qHydrate)

	// What the spans themselves cost: the cheapest traced call (a
	// serving hit) with recording on against the same call with it off.
	var on, off time.Duration
	for rep := 0; rep < 20; rep++ {
		rec.Enable(rep%2 == 0)
		t0 := time.Now()
		for i, rq := range reqs {
			serveOnce(rec, "server.ServeHTTP.hit", i+1, srv, "GET", rq.URI(), nil)
		}
		if rep%2 == 0 {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	rec.Enable(true)
	m["trace.overhead_ratio"] = float64(on) / float64(off)

	// delta: the same server with live ingestion switched on. Reads use
	// a k no earlier request used, so they miss the result cache while
	// their keywords stay warm: first with a clean overlay, then right
	// after each write.
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if err := srv.EnableDelta(server.DeltaConfig{
		WALPath: filepath.Join(scratch, "delta.wal"),
		Ingest:  ingestConfig(dataDir, scratch),
	}); err != nil {
		return nil, fmt.Errorf("EnableDelta: %w", err)
	}
	defer srv.CloseDelta()
	ops, err := data.Writes(deltaOps)
	if err != nil {
		return nil, err
	}
	read := func(name string, j, bump int) (float64, error) {
		rq := reqs[j%len(reqs)]
		rq.K += bump
		_, dur, status, body := serveOnce(rec, name, traceN+j+1, srv, "GET", rq.URI(), nil)
		if status != 200 {
			return 0, fmt.Errorf("in-process %s: status %d: %s", rq.URI(), status, body)
		}
		return us(dur), nil
	}
	var steady, dirty, put, del, ryw []float64
	for j := range ops {
		if _, err := read("server.ServeHTTP.delta_warm", j, 1); err != nil {
			return nil, err
		}
		d, err := read("server.ServeHTTP.delta_steady", j, 2)
		if err != nil {
			return nil, err
		}
		steady = append(steady, d)
	}
	for j, op := range ops {
		method, name, body := "POST", "server.ServeHTTP.ingest_put", op.Body
		if op.Delete {
			method, name, body = "DELETE", "server.ServeHTTP.ingest_delete", nil
		}
		_, dur, status, resp := serveOnce(rec, name, traceN+j+1, srv, method, "/admin/ingest?name="+url.QueryEscape(op.Name), body)
		if status != 200 {
			return nil, fmt.Errorf("in-process %s %s: status %d: %s", method, op.Name, status, resp)
		}
		if op.Delete {
			del = append(del, us(dur))
		} else {
			put = append(put, us(dur))
		}
		d, err := read("server.ServeHTTP.delta_dirty", j, 3)
		if err != nil {
			return nil, err
		}
		dirty = append(dirty, d)
		_, dur, status, resp = serveOnce(rec, "server.ServeHTTP.ryw", traceN+j+1, srv, "GET", probeRequest(op).URI(), nil)
		ryw = append(ryw, us(dur))
		if ok, detail := tokenCheck(op, !op.Delete, status, resp, nil); !ok {
			wrong = append(wrong, fmt.Sprintf("in-process delta op %d (%s %s): %s", j, method, op.Name, detail))
		}
	}
	m["delta.put_us"] = median(put)
	m["delta.delete_us"] = median(del)
	m["delta.steady_read_us"] = median(steady)
	m["delta.first_read_after_write_us"] = median(dirty)
	m["delta.dirty_read_ratio"] = m["delta.first_read_after_write_us"] / m["delta.steady_read_us"]
	m["delta.ryw_us"] = median(ryw)

	path := filepath.Join(e.out, "trace-"+sp.workload+".json")
	if err := trace.Write(path, trace.File{Workload: sp.workload, Seed: sp.seed, Spans: rec.Spans()}); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.logw, "trace: %d spans in %s\n", len(rec.Spans()), path)
	return wrong, nil
}
