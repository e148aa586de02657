// Command xontoload is the repo's benchmark. It generates a corpus and
// request streams from a seed, starts the real xontoserve on loopback,
// drives one of four traffic mixes at it, checks the answers, and
// prints every metric by name and unit. A second, traced pass replays
// the same stream in-process with the harness's own spans around each
// layer's public calls to split the end-to-end numbers by layer.
//
//	xontoload --workload hot --seed 1 --seconds 10 --trace 0   one run; last line of stdout is the result
//	xontoload all [-n 5] [-o file]                             every workload, table + bench/out/result.json
//	xontoload repeat -n 5                                      all without the traced pass: per-metric spread
//	xontoload compare a.json b.json                            apply the bounds, exit 1 on a regression
//	xontoload golden                                           rewrite bench/golden.json (seed 1 answers)
//	xontoload manifest                                         print BENCHMARK.json from the metric tables
//
// Run it from the repository root; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/bench/loadgen"
	"repro/bench/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader that went away (`| head`) must not skip the cleanup.
	signal.Ignore(syscall.SIGPIPE)
	// The open-loop scheduler polls the clock on a processor of its own.
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	var err error
	switch sub {
	case "all":
		err = cmdAll(ctx, args[1:], stdout, stderr, true)
	case "repeat":
		err = cmdAll(ctx, args[1:], stdout, stderr, false)
	case "compare":
		err = cmdCompare(args[1:], stdout)
	case "golden":
		err = cmdGolden(ctx, stderr)
	case "manifest":
		var b []byte
		if b, err = manifest(); err == nil {
			_, err = stdout.Write(b)
		}
	default:
		err = cmdRun(ctx, args, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "xontoload:", err)
		return 1
	}
	return 0
}

// newEnv locates the checkout (the working directory must be the
// repository root), builds xontoserve, and creates this process's
// scratch directory. Call the returned cleanup on every exit path; it
// also runs if ctx is cancelled by a signal.
func newEnv(ctx context.Context, logw io.Writer) (*env, func(), error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	for _, need := range []string{"go.mod", "cmd/xontoserve/main.go", "bench/cmd/xontoload/main.go"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, nil, fmt.Errorf("run from the repository root: %w", err)
		}
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out"), clean: &loadgen.Cleanup{}, logw: logw}
	e.bin = filepath.Join(e.out, "bin", "xontoserve")
	e.run = filepath.Join(e.out, fmt.Sprintf("run-%d", os.Getpid()))
	go func() {
		<-ctx.Done()
		e.clean.Run()
	}()
	if err := e.clean.TempDir(e.run); err != nil {
		return nil, nil, err
	}
	if err := e.buildServer(); err != nil {
		e.clean.Run()
		return nil, nil, err
	}
	return e, e.clean.Run, nil
}

// runOne measures one workload, checks its answers and, when asked,
// replays it traced.
func (e *env) runOne(ctx context.Context, sp spec) (*outcome, error) {
	out, run, err := e.measure(ctx, sp)
	if err != nil {
		return nil, err
	}
	// The server is gone by now, so the oracle's index build competes
	// with nothing that is timed. The ingest reads have no fixed answer
	// (the corpus changes under them; the writer checked read-your-writes).
	if len(run.bodies) > 0 || sp.trace {
		o, err := newOracle(ctx, e.dataDir(), filepath.Join(e.run, "oracle"))
		if err != nil {
			return nil, err
		}
		if len(run.bodies) > 0 {
			var g *golden
			if sp.seed == 1 && sp.size == workload.Full {
				if g, err = loadGolden(e.root); err != nil {
					return nil, err
				}
			}
			checked, wrong := verify(ctx, o, g, sp.workload, run.reqs, run.bodies)
			if checked == 0 {
				wrong = append(wrong, sp.workload+": no answer could be checked")
			}
			out.wrong(wrong)
		}
		if sp.trace {
			wrong, err := e.traced(ctx, sp, run.data, o, out.Metrics)
			if err != nil {
				return nil, fmt.Errorf("traced replay: %w", err)
			}
			out.wrong(wrong)
		}
	}
	out.Correct = len(out.Wrong) == 0
	out.Metrics["client.failed"] = float64(out.Failed)
	out.Metrics["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	for name, v := range out.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (no samples)", sp.workload, name)
		}
	}
	return out, nil
}

// cmdRun is the driver's entry point: one workload, one result line.
func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xontoload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sp := spec{}
	fs.StringVar(&sp.workload, "workload", "", "hot | merge | cold | ingest")
	fs.Int64Var(&sp.seed, "seed", 1, "seed for the corpus and the request streams")
	fs.Float64Var(&sp.seconds, "seconds", runSeconds, "how long the measured phases last in total")
	traceFlag := fs.Int("trace", 0, "1: set up once, add the in-process traced replay, report per-layer metrics")
	quick := fs.Bool("quick", false, "200-document corpus, one set-up (smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || sp.seconds <= 0 {
		return fmt.Errorf("usage: xontoload --workload <%v> --seed <n> --seconds <s> --trace <0|1>", workload.Names)
	}
	sp.size = workload.Full
	if *quick {
		sp.size = workload.Quick
	}
	sp.trace = *traceFlag != 0
	reported := endToEnd
	if sp.trace {
		reported = perLayer
	}

	e, cleanup, err := newEnv(ctx, stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	out, err := e.runOne(ctx, sp)
	if err != nil {
		return err
	}
	printTable(stderr, out)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for _, m := range reported {
		v, ok := out.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", sp.workload, m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if why := out.broken(); why != "" {
		return errors.New(why)
	}
	if out.Void {
		fmt.Fprintln(stderr, "xontoload: warning:", out.unusable())
	}
	return nil
}

// cmdGolden recomputes the seed-1 answers in-process and rewrites
// bench/golden.json. Run it only when a ranking change is intended.
func cmdGolden(ctx context.Context, stderr io.Writer) error {
	e, cleanup, err := newEnv(ctx, stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	data, err := workload.Generate(1, workload.Full)
	if err != nil {
		return err
	}
	if err := data.WriteDir(e.dataDir()); err != nil {
		return err
	}
	o, err := newOracle(ctx, e.dataDir(), filepath.Join(e.run, "oracle"))
	if err != nil {
		return err
	}
	g := golden{Seed: 1, Docs: workload.Full.Docs, Digests: map[string][]string{}}
	for _, wl := range []string{"hot", "merge", "cold"} {
		for _, rq := range stream(data, wl, checkN) {
			hits, err := o.answer(ctx, rq)
			if err != nil {
				return err
			}
			g.Digests[wl] = append(g.Digests[wl], digest(hits))
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.root, goldenPath), append(b, '\n'), 0o644)
}
