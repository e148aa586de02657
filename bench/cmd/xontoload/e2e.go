package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/bench/loadgen"
	"repro/bench/workload"
)

// env is where one invocation of the harness works: everything it
// writes lives under out, and everything under run is removed on exit.
type env struct {
	root  string // repository root (the working directory)
	out   string // <root>/bench/out
	run   string // <out>/run-<pid>: data directory, server log, scratch
	bin   string // <out>/bin/xontoserve
	clean *loadgen.Cleanup
	logw  io.Writer // progress and the metric table
}

// dataDir is where the generated corpus is written for xontoserve -data.
func (e *env) dataDir() string { return filepath.Join(e.run, "data") }

// spec is one benchmark run.
type spec struct {
	workload string
	seed     int64
	seconds  float64
	size     workload.Size
	trace    bool // set up once and also run the in-process traced replay
}

// outcome is what one run reports. Metrics are keyed by the names in
// metrics.go; values absent from a map were not measured by this run.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Void      bool               `json:"void,omitempty"` // the open-loop generator ran late in most rounds
	Late      int                `json:"late_rounds"`    // rounds left out because it ran late in them
	Samples   int                `json:"samples"`        // behind p50_ms and p90_ms
	Metrics   map[string]float64 `json:"metrics"`
	// Rounds holds the per-round values behind the metrics that are
	// medians over rounds.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	Wrong  []string             `json:"wrong,omitempty"`
}

// wrong counts wrong answers into the run's failures.
func (o *outcome) wrong(msgs []string) {
	o.Failed += len(msgs)
	o.Wrong = append(o.Wrong, msgs...)
}

// broken says what the server got wrong in a run, "" when nothing:
// every command fails on it.
func (o *outcome) broken() string {
	switch {
	case !o.Correct:
		return fmt.Sprintf("%s: wrong answers: %s", o.Workload, strings.Join(o.Wrong, "; "))
	case o.Failed > 0:
		return fmt.Sprintf("%s: %d of %d requests failed or missed the latency limit", o.Workload, o.Failed, o.Attempted)
	}
	return ""
}

// unusable says why a run's numbers must not be compared or kept as a
// baseline, "" when they can be: it is broken, or void. `all` and
// `repeat` fail on it, and `compare` and the spread table leave such
// runs out. The single-run command fails only on a broken run: its
// result line (the driver's protocol) has no word for void, and the
// driver takes medians and quartiles over ten runs per workload, which
// is its own way of setting a run from a bad quarter of an hour aside.
func (o *outcome) unusable() string {
	if why := o.broken(); why != "" {
		return why
	}
	if o.Void {
		return fmt.Sprintf("%s: void, the generator ran late in %d of %d rounds (client.sched_lag_p99_ms %.3f > %g)",
			o.Workload, o.Late, rounds, o.Metrics["client.sched_lag_p99_ms"], maxSchedLagMS)
	}
	return ""
}

// maxSchedLagMS voids an open-loop round: latencies from a schedule
// that ran later than this at its 99th percentile say more about the
// generator's share of the box than about the server. The box stalls
// for 50-120 ms now and then, harness included, and rounds exist so
// that this costs a round: a late round is left out of every
// end-to-end number, and a run with most of its rounds late is void.
const maxSchedLagMS = 1.0

// measured is what a run leaves behind for answer checking and for the
// traced replay.
type measured struct {
	data   *workload.Data
	reqs   []workload.Request // the measured stream
	bodies [][]byte           // the replies to its first checkN requests
}

// Latency limits: a request slower than this counts as failed, and a
// failed request makes the run unusable. They sit well above anything
// the seed shows at the benchmark rates on a noisy two-core box, whose
// own stalls (harness included, so whatever the workload) reach 120 ms:
// they trip on a server that hangs or collapses, never on noise.
var limits = map[string]time.Duration{
	"hot":    250 * time.Millisecond,
	"merge":  250 * time.Millisecond,
	"cold":   time.Second,
	"ingest": time.Second,
}

const writeLimit = 2 * time.Second

// Closed-loop phases stop when their share of the run is over; these
// caps only size the pregenerated streams (≈3x the seed's capacity).
var closedCap = map[string]float64{"hot": 40000, "merge": 6000, "ingest": 3000}

// buildServer compiles the real xontoserve from the checkout.
func (e *env) buildServer() error {
	if err := os.MkdirAll(filepath.Dir(e.bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/xontoserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/xontoserve: %w\n%s", err, out)
	}
	return nil
}

// spawn starts xontoserve over dataDir from a clean slate (no ingest
// manifest, no write-ahead log) and returns once /readyz answers 200.
func (e *env) spawn(dataDir string, flags ...string) (p *loadgen.Proc, addr string, setup time.Duration, err error) {
	for _, stale := range []string{"ingest.manifest", "quarantine", "delta.wal"} {
		if err := os.RemoveAll(filepath.Join(dataDir, stale)); err != nil {
			return nil, "", 0, err
		}
	}
	addr, err = loadgen.FreeAddr()
	if err != nil {
		return nil, "", 0, err
	}
	args := append([]string{"-data", dataDir, "-addr", addr}, flags...)
	start := time.Now()
	p, err = loadgen.StartProc(e.clean, e.bin, args, filepath.Join(e.run, "xontoserve.log"))
	if err != nil {
		return nil, "", 0, err
	}
	if err := p.WaitReady(addr, "/readyz", 150*time.Second); err != nil {
		p.Stop()
		return nil, "", 0, fmt.Errorf("%w (see %s)", err, e.serverLogTail())
	}
	return p, addr, time.Since(start), nil
}

func (e *env) serverLogTail() string {
	b, err := os.ReadFile(filepath.Join(e.run, "xontoserve.log"))
	if err != nil {
		return "no server log"
	}
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return "server log tail:\n" + string(b)
}

func build(reqs []workload.Request) [][]byte {
	cache := map[workload.Request][]byte{}
	out := make([][]byte, len(reqs))
	for i, rq := range reqs {
		b, ok := cache[rq]
		if !ok {
			b = loadgen.BuildRequest("", rq.URI(), nil)
			cache[rq] = b
		}
		out[i] = b
	}
	return out
}

// scrapeCache reads the result cache's hit and miss counters from
// /metrics; ok is false when either series is absent.
func scrapeCache(addr string) (hits, misses float64, ok bool) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return 0, 0, false
	}
	defer c.Close()
	status, body, err := c.Do(loadgen.BuildRequest("", "/metrics", nil))
	if err != nil || status != 200 {
		return 0, 0, false
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "xontorank_search_cache_hits_total":
			hits, err = strconv.ParseFloat(f[1], 64)
		case "xontorank_search_cache_misses_total":
			misses, err = strconv.ParseFloat(f[1], 64)
		default:
			continue
		}
		if err == nil {
			found++
		}
	}
	return hits, misses, found == 2
}

// writeInterval paces the ingest writer.
const writeInterval = workload.WriteIntervalMS * time.Millisecond

// writerLog is what the ingest writer observed.
type writerLog struct {
	acked     atomic.Int64 // ops acknowledged so far; read by the measuring loop
	lats      []float64    // acked op latency, ms
	attempted int          // ops + read-your-writes probes
	failed    int          // non-200, transport errors, over the limit
	wrong     []string     // read-your-writes violations
	live      []workload.WriteOp
	deleted   []workload.WriteOp
}

// tokenCheck judges the reply to a query for an op's unique token: the
// document must be found after a put and gone after a delete.
func tokenCheck(op workload.WriteOp, wantPresent bool, status int, body []byte, err error) (ok bool, detail string) {
	if err != nil || status != 200 {
		return false, fmt.Sprintf("probe %s: status %d err %v", op.Token, status, err)
	}
	sb, err := parseSearch(body)
	if err != nil {
		return false, err.Error()
	}
	present := false
	for _, h := range sb.Results {
		present = present || h.Document == op.Name
	}
	if present != wantPresent {
		return false, fmt.Sprintf("token %s of %s: present=%v, want %v", op.Token, op.Name, present, wantPresent)
	}
	return true, ""
}

// probeRequest asks for an op's unique token.
func probeRequest(op workload.WriteOp) workload.Request {
	return workload.Request{Query: op.Token, K: 10}
}

func probe(c *loadgen.Conn, op workload.WriteOp, wantPresent bool) (ok bool, detail string) {
	status, body, err := c.Do(loadgen.BuildRequest("", probeRequest(op).URI(), nil))
	return tokenCheck(op, wantPresent, status, body, err)
}

// runWriter performs one admin op per interval on its own connection
// until ctx is done or ops run out, probing read-your-writes after
// every ack. Everything in log but acked is the writer's until it
// returns.
func runWriter(ctx context.Context, addr string, ops []workload.WriteOp, interval time.Duration, log *writerLog) error {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	for i, op := range ops {
		if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			break
		}
		method, body := "POST", op.Body
		if op.Delete {
			method, body = "DELETE", nil
		}
		uri := "/admin/ingest?name=" + url.QueryEscape(op.Name)
		t0 := time.Now()
		status, _, err := c.Do(loadgen.BuildRequest(method, uri, body))
		lat := time.Since(t0)
		log.attempted++
		if err != nil || status != 200 {
			log.failed++
			continue // not acked: nothing to read back
		}
		if lat > writeLimit {
			log.failed++
		}
		log.acked.Add(1)
		log.lats = append(log.lats, float64(lat)/float64(time.Millisecond))
		if op.Delete {
			log.deleted = append(log.deleted, op)
			for j, l := range log.live {
				if l.Name == op.Name {
					log.live = append(log.live[:j], log.live[j+1:]...)
					break
				}
			}
		} else {
			log.live = append(log.live, op)
		}
		log.attempted++
		if ok, detail := probe(c, op, !op.Delete); !ok {
			log.failed++
			log.wrong = append(log.wrong, fmt.Sprintf("ingest op %d (%s %s): %s", i, method, op.Name, detail))
		}
	}
	return nil
}

// rounds is how many slices a run's measured time is cut into. Every
// end-to-end number is taken per round and reported as the median over
// rounds, so a burst of interference from outside the benchmark (this
// is a shared two-core box) costs a round, not the run.
const rounds = 5

// round is one slice of a run.
type round struct {
	search *loadgen.Result // the samples p50_ms and p90_ms come from
	closed *loadgen.Result // the saturated phase qps comes from; nil when search is that phase
	cpu    time.Duration   // server CPU spent during the round
	done   int             // requests the server completed during the round
	late   bool            // the open-loop schedule ran late: see maxSchedLagMS
}

func (r round) qps() float64 {
	ph := r.closed
	if ph == nil {
		ph = r.search
	}
	return float64(ph.OK()) / ph.Elapsed.Seconds()
}

// perRound evaluates one end-to-end number on every round.
func perRound(rs []round, f func(round) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// measure runs one workload end to end against a real xontoserve.
func (e *env) measure(ctx context.Context, sp spec) (*outcome, *measured, error) {
	data, err := workload.Generate(sp.seed, sp.size)
	if err != nil {
		return nil, nil, err
	}
	dataDir := e.dataDir()
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, nil, err
	}
	if err := data.WriteDir(dataDir); err != nil {
		return nil, nil, err
	}
	var flags []string
	if sp.workload == "ingest" {
		flags = []string{"-live-ingest"}
	}

	// Set-up, three times: the median is what setup_s reports and the
	// last server is the one the workload runs against. The traced run
	// reports no setup_s, and the smoke test asserts no speed.
	starts := 3
	if sp.trace || sp.size == workload.Quick {
		starts = 1
	}
	var setups []float64
	var srv *loadgen.Proc
	var addr string
	for i := 0; i < starts; i++ {
		if srv != nil {
			srv.Stop()
		}
		var took time.Duration
		srv, addr, took, err = e.spawn(dataDir, flags...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer srv.Stop()
	ready, err := srv.Stat()
	if err != nil {
		return nil, nil, err
	}

	total := time.Duration(sp.seconds * float64(time.Second))
	slice := total / rounds
	limit := limits[sp.workload]
	m := map[string]float64{"client.warmup_s": 0}

	// Each workload is a warm-up, a request stream, and a function that
	// runs round i over its share of the stream.
	var warm, reqs []workload.Request
	var raw [][]byte
	var runRound func(i int) (search, closed *loadgen.Result, err error)
	openLoop := false // whether p50_ms and p90_ms count from a schedule
	// openThenClosed is the shape of hot and merge: 60 % of each round
	// at a fixed arrival rate, then 40 % with every connection saturated.
	openThenClosed := func(rate float64, gen func(n int) []workload.Request) {
		openLoop = true
		dOpen := slice * 6 / 10
		dClosed := slice - dOpen
		nOpen := int(rate * dOpen.Seconds())
		per := nOpen + int(closedCap[sp.workload]*dClosed.Seconds())
		reqs = gen(rounds * per)
		runRound = func(i int) (search, closed *loadgen.Result, err error) {
			mine := raw[i*per : (i+1)*per]
			if search, err = loadgen.OpenLoop(ctx, addr, workload.Conns, rate, dOpen, mine[:nOpen], checkN); err != nil {
				return nil, nil, err
			}
			closed, err = loadgen.ClosedLoop(ctx, addr, workload.Conns, dClosed, mine[nOpen:], 0)
			return search, closed, err
		}
	}
	// oneClient is the shape of cold and ingest: a single connection
	// that sends its next request when the previous reply arrives.
	oneClient := func(per, keep int) {
		runRound = func(i int) (search, closed *loadgen.Result, err error) {
			search, err = loadgen.ClosedLoop(ctx, addr, 1, slice, raw[i*per:min((i+1)*per, len(raw))], keep)
			return search, nil, err
		}
	}
	var ops []workload.WriteOp
	switch sp.workload {
	case "hot":
		warm = data.HotWarm()
		openThenClosed(workload.HotRate, data.Hot)
	case "merge":
		warm = data.MergeWarm()
		openThenClosed(workload.MergeRate, data.Merge)
	case "cold":
		// No warm-up: the first request the server ever sees is measured.
		// The sweep is cut into equal shares; a round ends with its share.
		reqs = data.Cold()
		oneClient((len(reqs)+rounds-1)/rounds, checkN)
	case "ingest":
		per := int(closedCap["ingest"] * slice.Seconds())
		reqs = data.IngestReads(rounds * per)
		// The corpus changes under these reads, so no fixed answer exists
		// to check them against; the writer checks read-your-writes.
		oneClient(per, 0)
		if ops, err = data.Writes(int(total/writeInterval) + 5); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", sp.workload, workload.Names)
	}
	raw = build(reqs)

	if len(warm) > 0 {
		t0 := time.Now()
		res, err := loadgen.ClosedLoop(ctx, addr, workload.Conns, time.Hour, build(warm), 0)
		if err != nil {
			return nil, nil, err
		}
		if res.OK() != len(warm) {
			return nil, nil, fmt.Errorf("warm-up: %d of %d requests answered 2xx: %v", res.OK(), len(warm), res.Statuses())
		}
		m["client.warmup_s"] = time.Since(t0).Seconds()
	}

	hits0, misses0, cacheOK := scrapeCache(addr)
	var wlog *writerLog
	var writerDone chan error
	stopWriter := func() {}
	if ops != nil {
		var wctx context.Context
		wctx, stopWriter = context.WithCancel(ctx)
		defer stopWriter()
		wlog = &writerLog{}
		writerDone = make(chan error, 1)
		go func() { writerDone <- runWriter(wctx, addr, ops, writeInterval, wlog) }()
	}
	var rs []round
	var bodies [][]byte
	for i := 0; i < rounds; i++ {
		// The harness collects its own garbage between rounds and never
		// inside one: a collection cycle (≈15 ms here) holds the open-loop
		// scheduler up for 1-2 ms at a time, which is the generator being
		// late, not the server. A round allocates well under 100 MB.
		runtime.GC()
		before, err := srv.Stat()
		if err != nil {
			return nil, nil, err
		}
		acked := 0
		if wlog != nil {
			acked = int(wlog.acked.Load())
		}
		gcPercent := debug.SetGCPercent(-1)
		search, closed, err := runRound(i)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", sp.workload, i, err)
		}
		after, err := srv.Stat()
		if err != nil {
			return nil, nil, fmt.Errorf("server died during %s: %w (%s)", sp.workload, err, e.serverLogTail())
		}
		r := round{search: search, closed: closed, cpu: after.CPU - before.CPU, done: search.OK()}
		if closed != nil {
			r.done += closed.OK()
		}
		if wlog != nil {
			r.done += int(wlog.acked.Load()) - acked
		}
		if len(search.Samples) == 0 {
			break // the stream ran out in an earlier round
		}
		// A closed loop times a request from its actual send, so only an
		// open loop can be late; and the smoke test asserts no speed, so
		// at its size nothing is.
		r.late = openLoop && sp.size == workload.Full && loadgen.Quantile(search.LagsMS(), 0.99) > maxSchedLagMS
		rs = append(rs, r)
		if i == 0 {
			bodies = search.Bodies
		}
	}
	stopWriter()
	if writerDone != nil {
		if err := <-writerDone; err != nil {
			return nil, nil, err
		}
	}
	end, err := srv.Stat()
	if err != nil {
		return nil, nil, err
	}
	hits1, misses1, cacheOK1 := scrapeCache(addr)

	out := &outcome{Workload: sp.workload, Seed: sp.seed, Metrics: m}
	if wlog != nil {
		// The reload runs with the delta still pending, so it pays the
		// rebuild and the rebase; acked writes must survive it.
		c, err := loadgen.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		defer c.Close()
		t0 := time.Now()
		status, body, err := c.Do(loadgen.BuildRequest("POST", "/admin/reload", nil))
		m["reload_s"] = time.Since(t0).Seconds()
		out.Attempted++
		if err != nil || status != 200 {
			out.Failed++
			out.Wrong = append(out.Wrong, fmt.Sprintf("reload: status %d err %v %s", status, err, body))
		}
		for _, pr := range []struct {
			ops     []workload.WriteOp
			present bool
		}{{wlog.live, true}, {wlog.deleted, false}} {
			if n := len(pr.ops); n > 0 {
				out.Attempted++
				if ok, detail := probe(c, pr.ops[n-1], pr.present); !ok {
					out.Failed++
					out.Wrong = append(out.Wrong, "after reload: "+detail)
				}
			}
		}
		sort.Float64s(wlog.lats)
		m["write_p50_ms"] = loadgen.Quantile(wlog.lats, 0.5)
		m["client.write_p90_ms"] = loadgen.Quantile(wlog.lats, 0.9)
		m["client.writes"] = float64(len(wlog.lats))
		out.Attempted += wlog.attempted
		out.Failed += wlog.failed
		out.Wrong = append(out.Wrong, wlog.wrong...)
	}
	srv.Stop()

	// Every measured sample counts once: failed when it was refused,
	// errored, or answered later than the workload's limit.
	statuses := map[int]int{}
	sent, ok, missed := 0, 0, 0
	for _, r := range rs {
		for _, ph := range []*loadgen.Result{r.search, r.closed} {
			if ph == nil {
				continue
			}
			sent += len(ph.Samples)
			ok += ph.OK()
			out.Failed += ph.Over(limit)
			missed += ph.Over(limit) - (len(ph.Samples) - ph.OK())
			for code, n := range ph.Statuses() {
				statuses[code] += n
			}
		}
	}
	out.Attempted += sent

	// The numbers come from the rounds that ran on schedule.
	lagPerRound := perRound(rs, func(r round) float64 { return loadgen.Quantile(r.search.LagsMS(), 0.99) })
	var onTime []round
	for _, r := range rs {
		if !r.late {
			onTime = append(onTime, r)
		}
	}
	out.Late = len(rs) - len(onTime)
	if out.Void = 2*len(onTime) <= len(rs); !out.Void {
		rs = onTime
	}
	var pooled loadgen.Result // every latency sample of those rounds
	for _, r := range rs {
		pooled.Samples = append(pooled.Samples, r.search.Samples...)
	}
	lat, lag := pooled.LatenciesMS(), pooled.LagsMS()
	out.Samples = len(lat)
	if len(lat) == 0 {
		return nil, nil, fmt.Errorf("%s: no request was measured", sp.workload)
	}

	sort.Float64s(setups)
	m["setup_s"] = setups[len(setups)/2]
	out.Rounds = map[string][]float64{
		"p50_ms": perRound(rs, func(r round) float64 { return loadgen.Quantile(r.search.LatenciesMS(), 0.5) }),
		"p90_ms": perRound(rs, func(r round) float64 { return loadgen.Quantile(r.search.LatenciesMS(), 0.9) }),
		"qps":    perRound(rs, round.qps),
		"cpu_ms_per_req": perRound(rs, func(r round) float64 {
			return float64(r.cpu) / float64(time.Millisecond) / math.Max(1, float64(r.done))
		}),
	}
	for name, xs := range out.Rounds {
		m[name] = median(xs)
	}
	out.Rounds["client.sched_lag_p99_ms"] = lagPerRound // of every round, late ones too
	m["rss_mb"] = end.RSSMB
	tail := loadgen.TailQuantile(len(lat))
	m["client.tail_ms"] = loadgen.Quantile(lat, tail)
	m["client.tail_percentile"] = 100 * tail
	m["client.max_ms"] = lat[len(lat)-1]
	m["client.sched_lag_p99_ms"] = loadgen.Quantile(lag, 0.99)
	m["client.sent"] = float64(sent)
	m["client.ok"] = float64(ok)
	m["client.limit_missed"] = float64(missed)
	m["proc.rss_ready_mb"] = ready.RSSMB
	m["proc.rss_peak_mb"] = end.PeakMB
	m["proc.cpu_s"] = end.CPU.Seconds()
	m["proc.threads"] = float64(end.Threads)
	m["serving.shed_429"] = float64(statuses[429])
	m["serving.timeout_504"] = float64(statuses[504])
	m["serving.cache_hit_ratio"] = -1 // series absent from /metrics
	if dh, dm := hits1-hits0, misses1-misses0; cacheOK && cacheOK1 && dh+dm > 0 {
		m["serving.cache_hit_ratio"] = dh / (dh + dm)
	}

	return out, &measured{data: data, reqs: reqs, bodies: bodies}, nil
}
