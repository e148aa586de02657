package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the child process of the Proc tests: with
// LOADGEN_CHILD set the binary just sits there, optionally deaf to
// SIGTERM, until it is killed.
func TestMain(m *testing.M) {
	switch os.Getenv("LOADGEN_CHILD") {
	case "":
		os.Exit(m.Run())
	case "stubborn":
		signal.Ignore(syscall.SIGTERM)
	}
	fmt.Println("child up")
	time.Sleep(time.Minute)
}

func gets(n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = BuildRequest("", fmt.Sprintf("/r?i=%d", i), nil)
	}
	return reqs
}

func addrOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// A server that stalls once delays every request that falls due during
// the stall. The open loop must charge each of them, not only the one
// request that was in flight (coordinated omission).
func TestOpenLoopCountsRequestsDelayedByAStall(t *testing.T) {
	const rate, stallAt, stall = 200.0, 40, 300 * time.Millisecond
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	res, err := OpenLoop(context.Background(), addrOf(ts), 1, rate, time.Second, gets(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != int(rate) || res.OK() != int(rate) {
		t.Fatalf("sent %d, ok %d, want %v of each", len(res.Samples), res.OK(), rate)
	}
	slow := res.Over(stall / 3)
	// 300 ms at 200 req/s: 60 requests fall due during the stall, and
	// two thirds of them wait more than 100 ms.
	if slow < 30 {
		t.Fatalf("%d requests counted as delayed by the stall, want at least 30: the schedule followed the server", slow)
	}
	if lag := Quantile(res.LagsMS(), 0.99); lag > 20 {
		t.Fatalf("generator lateness p99 %.1f ms: the stall leaked into the schedule", lag)
	}
}

func TestOpenLoopUsesAFreeConnectionDuringAStall(t *testing.T) {
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 10 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer ts.Close()
	res, err := OpenLoop(context.Background(), addrOf(ts), 2, 200, 500*time.Millisecond, gets(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow := res.Over(50 * time.Millisecond); slow > 3 {
		t.Fatalf("%d requests were slow although one of two connections stayed free", slow)
	}
}

func TestClosedLoopKeepsBodiesAndStopsOnTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Query().Get("i"))
	}))
	defer ts.Close()
	reqs := gets(100_000)
	start := time.Now()
	res, err := ClosedLoop(context.Background(), addrOf(ts), 2, 200*time.Millisecond, reqs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("closed loop ran %v, want about 200ms", el)
	}
	if res.OK() != len(res.Samples) || res.OK() < 10 {
		t.Fatalf("%d ok of %d", res.OK(), len(res.Samples))
	}
	for i, b := range res.Bodies {
		if string(b) != fmt.Sprint(i) {
			t.Fatalf("body %d is %q", i, b)
		}
	}
	// Out of requests before out of time.
	res, err = ClosedLoop(context.Background(), addrOf(ts), 2, time.Minute, gets(7), 0)
	if err != nil || len(res.Samples) != 7 {
		t.Fatalf("got %d samples, err %v, want 7", len(res.Samples), err)
	}
}

func TestFailedRequestsAreSamples(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == "3" {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	res, err := ClosedLoop(context.Background(), addrOf(ts), 1, time.Minute, gets(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Statuses(); st[429] != 1 || st[200] != 5 || res.Over(time.Minute) != 1 {
		t.Fatalf("statuses %v, over %d", st, res.Over(time.Minute))
	}
	ts.Close()
	c, err := Dial(addrOf(ts))
	if err == nil {
		_, _, err = c.Do(gets(1)[0])
		c.Close()
	}
	if err == nil {
		t.Fatal("a request to a closed server succeeded")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := Quantile(xs, q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := TailQuantile(n); got != want {
			t.Errorf("TailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

func startChild(t *testing.T, c *Cleanup, mode string) *Proc {
	t.Helper()
	t.Setenv("LOADGEN_CHILD", mode)
	log := filepath.Join(t.TempDir(), "child.log")
	p, err := StartProc(c, os.Args[0], nil, log)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the child has installed its signal disposition.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, _ := os.ReadFile(log); strings.Contains(string(b), "child up") {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("child never came up")
		}
	}
}

func TestCleanupKillsChildrenAndRemovesTempDirs(t *testing.T) {
	var c Cleanup
	dir := filepath.Join(t.TempDir(), "run")
	if err := c.TempDir(dir); err != nil {
		t.Fatal(err)
	}
	polite := startChild(t, &c, "polite")
	stubborn := startChild(t, &c, "stubborn")
	stubborn.grace = 100 * time.Millisecond
	if _, err := polite.Stat(); err != nil && runtime.GOOS == "linux" {
		t.Fatalf("stat of a live child: %v", err)
	}

	c.Run()
	c.Run() // a second exit path finds nothing left to do
	for _, p := range []*Proc{polite, stubborn} {
		if !p.Exited() || alive(p.PID()) {
			t.Fatalf("child %d survived the cleanup", p.PID())
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("temp dir still there: %v", err)
	}

	// Anything registered after the cleanup ran is undone at once.
	t.Setenv("LOADGEN_CHILD", "polite")
	late, err := StartProc(&c, os.Args[0], nil, filepath.Join(t.TempDir(), "late.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !late.Exited() {
		t.Fatal("a child started after the cleanup was left running")
	}
}

func TestWaitReadyNoticesADeadServer(t *testing.T) {
	var c Cleanup
	defer c.Run()
	p := startChild(t, &c, "polite")
	addr, err := FreeAddr()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		p.Stop()
	}()
	start := time.Now()
	if err := p.WaitReady(addr, "/readyz", 10*time.Second); err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("WaitReady returned %v after %v for a server that died", err, time.Since(start))
	}
}
