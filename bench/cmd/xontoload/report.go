package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/workload"
)

// header says where and on what a result file was measured.
type header struct {
	CPU      string  `json:"cpu"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Commit   string  `json:"commit"`
	Docs     int     `json:"docs"`
	Concepts int     `json:"concepts"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Time     string  `json:"time"`
}

// resultFile is bench/out/result.json: per workload, every untraced
// run (end-to-end numbers) and the last traced run (per-layer numbers).
type resultFile struct {
	Header header                `json:"header"`
	Runs   map[string][]*outcome `json:"runs"`
	Traced map[string]*outcome   `json:"traced,omitempty"`
}

func newHeader(root string, sp spec) header {
	h := header{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown", CPU: "unknown",
		Docs: sp.size.Docs, Concepts: sp.size.Concepts, Seed: sp.seed, Seconds: sp.seconds,
		Time: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// printTable lists every metric a run measured, by name and unit.
func printTable(w io.Writer, out *outcome) {
	state := "answers verified"
	if !out.Correct {
		state = "WRONG ANSWERS"
	}
	if out.Late > 0 {
		state += fmt.Sprintf(", generator ran late in %d of %d rounds", out.Late, rounds)
	}
	if out.Void {
		state += ": VOID"
	}
	fmt.Fprintf(w, "\n%s  seed %d  attempted %d  failed %d  latency samples %d  %s\n",
		out.Workload, out.Seed, out.Attempted, out.Failed, out.Samples, state)
	for _, group := range [][]metric{endToEnd, extras, perLayer} {
		for _, m := range group {
			if v, ok := out.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	if out.Late > 0 {
		fmt.Fprintf(w, "  client.sched_lag_p99_ms per round: %.3f\n", out.Rounds["client.sched_lag_p99_ms"])
	}
	for _, msg := range out.Wrong {
		fmt.Fprintln(w, "  wrong:", msg)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's rule).
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / med
}

// values collects one metric over the usable runs.
func values(runs []*outcome, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok && r.unusable() == "" {
			xs = append(xs, v)
		}
	}
	return xs
}

// cmdAll runs every workload (n untraced runs each, then one traced
// run), prints the tables, and writes the result file. `repeat` is the
// same without the traced run, followed by the per-metric spread.
func cmdAll(ctx context.Context, args []string, stdout, stderr io.Writer, traced bool) error {
	fs := flag.NewFlagSet("xontoload all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sp := spec{}
	fs.Int64Var(&sp.seed, "seed", 1, "seed for the corpus and the request streams")
	fs.Float64Var(&sp.seconds, "seconds", runSeconds, "how long the measured phases of one run last")
	n := fs.Int("n", 1, "untraced runs per workload")
	quick := fs.Bool("quick", false, "200-document corpus, one set-up (smoke test)")
	outPath := fs.String("o", "", "result file (default bench/out/result.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp.size = workload.Full
	if *quick {
		sp.size = workload.Quick
	}
	e, cleanup, err := newEnv(ctx, stderr)
	if err != nil {
		return err
	}
	defer cleanup()

	res := resultFile{Header: newHeader(e.root, sp), Runs: map[string][]*outcome{}, Traced: map[string]*outcome{}}
	var bad []string
	for _, wl := range workload.Names {
		sp.workload = wl
		for i := 0; i < *n; i++ {
			sp.trace = false
			out, err := e.runOne(ctx, sp)
			if err != nil {
				return err
			}
			printTable(stdout, out)
			res.Runs[wl] = append(res.Runs[wl], out)
			if why := out.unusable(); why != "" {
				bad = append(bad, fmt.Sprintf("run %d of %s", i+1, why))
			}
		}
		if traced {
			sp.trace = true
			out, err := e.runOne(ctx, sp)
			if err != nil {
				return err
			}
			printTable(stdout, out)
			res.Traced[wl] = out
			if why := out.unusable(); why != "" {
				bad = append(bad, "traced run of "+why)
			}
		}
	}

	if *n > 1 {
		fmt.Fprintf(stdout, "\nspread over %d runs (median, (q3-q1)/median, bound)\n", *n)
		for _, wl := range workload.Names {
			for _, group := range [][]metric{endToEnd, extras} {
				for _, m := range group {
					if xs := values(res.Runs[wl], m.Name); len(xs) > 1 {
						fmt.Fprintf(stdout, "  %-7s %-20s %12.4f %-6s %6.1f%%  %4.0f%%\n", wl, m.Name, median(xs), m.Unit, 100*spread(xs), 100*m.Bound)
					}
				}
			}
		}
	}
	path := *outPath
	if path == "" {
		path = filepath.Join(e.out, "result.json")
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nresult file:", path)
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "\n"))
	}
	return nil
}

// cmdCompare applies the bounds to two result files: for each workload
// and bounded metric, the candidate's median may be worse than the
// baseline's by at most the bound.
func cmdCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: xontoload compare baseline.json candidate.json")
	}
	var files [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	regressions := 0
	for _, wl := range workload.Names {
		for _, group := range [][]metric{endToEnd, extras} {
			for _, m := range group {
				if m.Bound == 0 && m.Abs == 0 {
					continue
				}
				a, b := values(files[0].Runs[wl], m.Name), values(files[1].Runs[wl], m.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				base, cand := median(a), median(b)
				worse := cand - base
				if m.Better == "higher" {
					worse = base - cand
				}
				allowed := m.Abs
				if m.Bound > 0 {
					allowed = m.Bound * base
				}
				verdict := "ok"
				if worse > allowed {
					verdict = "REGRESSION"
					regressions++
				}
				fmt.Fprintf(stdout, "%-7s %-16s %12.4f -> %12.4f %-6s (%+.1f%%, bound %s)  %s\n",
					wl, m.Name, base, cand, m.Unit, 100*(cand-base)/max(base, 1e-12), boundText(m), verdict)
			}
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

func boundText(m metric) string {
	if m.Bound > 0 {
		return fmt.Sprintf("%.0f%%", 100*m.Bound)
	}
	return fmt.Sprintf("+%g abs", m.Abs)
}
