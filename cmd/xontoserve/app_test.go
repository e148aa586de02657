package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cda"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/server"
	"repro/internal/xmltree"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if err := faultinject.CheckDisabled(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// writeDataDir lays out a directory exactly as `xontorank gen` would:
// ontology.json plus docs/*.xml.
func writeDataDir(t *testing.T) (string, *ontology.Ontology) {
	t.Helper()
	dir := t.TempDir()
	ont, err := ontology.Generate(ontology.GenConfig{Seed: 7, ExtraConcepts: 40})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "ontology.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ont.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	docs := filepath.Join(dir, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{Seed: 7, NumDocuments: 4, ProblemsPerPatient: 2,
		MedicationsPerPatient: 2, ProceduresPerPatient: 1}, ont)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range g.GenerateCorpus().Docs() {
		writeDocFile(t, docs, doc)
	}
	return dir, ont
}

func writeDocFile(t *testing.T, dir string, doc *xmltree.Document) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, doc.Name+".xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := xmltree.WriteXML(f, doc.Root); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// startApp runs the app on an ephemeral port and returns it once it is
// serving, plus a channel carrying run's result.
func startApp(t *testing.T, args ...string) (*app, chan error) {
	t.Helper()
	fs := flag.NewFlagSet("xontoserve-test", flag.PanicOnError)
	a := newApp(fs, append([]string{"-addr", "127.0.0.1:0"}, args...))
	a.logf = t.Logf
	done := make(chan error, 1)
	go func() { done <- a.run(context.Background()) }()
	select {
	case <-a.ready:
	case err := <-done:
		t.Fatalf("app exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("app not ready after 10s")
	}
	return a, done
}

func appGET(t *testing.T, a *app, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + a.boundAddr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func waitExit(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("app did not exit after signal")
	}
}

// SIGTERM must drain: a request in flight when the signal lands is
// answered 200 before the process exits cleanly.
func TestSIGTERMGracefulDrain(t *testing.T) {
	dir, _ := writeDataDir(t)
	a, done := startApp(t, "-data", dir)

	// Hold the next search in the handler long enough to overlap the
	// signal.
	faultinject.Enable(server.FPSearch, faultinject.Spec{
		Mode: faultinject.ModeLatency, Delay: 500 * time.Millisecond, Count: 1,
	})
	defer faultinject.Disable(server.FPSearch)

	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + a.boundAddr + "/search?q=asthma&k=3")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode}
	}()
	// Let the request reach the latency failpoint, then signal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hits, _ := faultinject.Counts(server.FPSearch); hits > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never reached the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request = %d during drain, want 200", res.code)
	}
	waitExit(t, done)
	// After exit, the port is closed.
	if _, err := http.Get("http://" + a.boundAddr + "/healthz"); err == nil {
		t.Fatal("server still answering after drain")
	}
}

// SIGHUP must hot-reload with zero downtime: under concurrent load,
// every response stays 2xx while the generation advances and the new
// document becomes searchable.
func TestSIGHUPReloadUnderLoad(t *testing.T) {
	dir, ont := writeDataDir(t)
	a, done := startApp(t, "-data", dir)

	var stop atomic.Bool
	var non2xx, total atomic.Int64
	var wg sync.WaitGroup
	paths := []string{"/search?q=asthma+medications&k=5", "/readyz", "/search?q=cardiac+arrest&k=3"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; !stop.Load(); i++ {
				resp, err := client.Get("http://" + a.boundAddr + paths[(w+i)%len(paths)])
				if err != nil {
					if !stop.Load() {
						non2xx.Add(1)
						t.Errorf("request error: %v", err)
					}
					return
				}
				_, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				total.Add(1)
				if resp.StatusCode < 200 || resp.StatusCode > 299 {
					non2xx.Add(1)
					t.Errorf("%s -> %d", paths[(w+i)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(w)
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor(func() bool { return total.Load() >= 20 }, "load to ramp up")

	// A new valid document and a corrupt one arrive, then SIGHUP.
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	writeDocFile(t, filepath.Join(dir, "docs"), fig1)
	if err := os.WriteFile(filepath.Join(dir, "docs", "zz-corrupt.xml"), []byte("<ClinicalDocument><torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	generation := func() uint64 {
		code, body := appGET(t, a, "/readyz")
		if code != http.StatusOK {
			t.Fatalf("/readyz = %d: %s", code, body)
		}
		var ready server.ReadyResponse
		if err := json.Unmarshal(body, &ready); err != nil {
			t.Fatal(err)
		}
		return ready.Generation
	}
	waitFor(func() bool { return generation() == 2 }, "generation 2")
	base := total.Load()
	waitFor(func() bool { return total.Load() >= base+20 }, "post-reload traffic")
	stop.Store(true)
	wg.Wait()
	if n := non2xx.Load(); n != 0 {
		t.Fatalf("%d non-2xx of %d across SIGHUP reload", n, total.Load())
	}

	// The reload went through the ingestion pipeline: corrupt doc
	// quarantined with a reason file, new doc searchable.
	code, body := appGET(t, a, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	var ready server.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Documents != 5 {
		t.Fatalf("documents = %d, want 5", ready.Documents)
	}
	if ready.LastIngest == nil || ready.LastIngest.Quarantined != 1 {
		t.Fatalf("lastIngest = %+v", ready.LastIngest)
	}
	reason, err := os.ReadFile(filepath.Join(dir, "quarantine", "zz-corrupt.xml.reason.json"))
	if err != nil {
		t.Fatalf("quarantine reason file: %v", err)
	}
	var why map[string]any
	if err := json.Unmarshal(reason, &why); err != nil {
		t.Fatalf("reason file not JSON: %v", err)
	}
	code, body = appGET(t, a, "/search?q=asthma+theophylline&k=10")
	if code != http.StatusOK {
		t.Fatalf("/search = %d", code)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sr.Results {
		if r.Document == "figure-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("figure-1 not searchable after SIGHUP reload")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, done)
}

// -generate mode has no data directory: reload is not configured and
// POST /admin/reload answers 501 while SIGHUP is a logged no-op.
func TestGenerateModeReloadNotConfigured(t *testing.T) {
	a, done := startApp(t, "-generate", "-docs", "3", "-concepts", "30")
	resp, err := http.Post("http://"+a.boundAddr+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/admin/reload in -generate mode = %d, want 501", resp.StatusCode)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, done)
}

// syncBuffer is a bytes.Buffer safe to write from server goroutines
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// With -json-log every request is logged once, as the server's
// structured "request" record; the plain logging line is not added on
// top of it.
func TestJSONLogOneAccessLinePerRequest(t *testing.T) {
	defer obs.SetDefault(nil)
	fs := flag.NewFlagSet("xontoserve-test", flag.PanicOnError)
	a := newApp(fs, []string{"-addr", "127.0.0.1:0", "-generate", "-docs", "3", "-concepts", "30", "-json-log"})
	var jsonOut syncBuffer
	a.jsonLogOut = &jsonOut
	var mu sync.Mutex
	var plain []string
	a.logf = func(format string, args ...any) {
		mu.Lock()
		plain = append(plain, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	select {
	case <-a.ready:
	case err := <-done:
		t.Fatalf("app exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("app not ready after 10s")
	}

	paths := []string{"/search?q=asthma&k=3", "/search?q=asthma&k=3", "/readyz", "/healthz", "/search"}
	for _, p := range paths {
		appGET(t, a, p)
	}
	// The record is written as the handler returns, which may trail the
	// client's read of a flushed body by a moment.
	countRecords := func() int {
		n := 0
		for _, line := range strings.Split(strings.TrimSpace(jsonOut.String()), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "request" {
				if _, ok := rec["trace_id"]; !ok {
					t.Errorf("access record without trace_id: %s", line)
				}
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for countRecords() < len(paths) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	waitExit(t, done)
	if n := countRecords(); n != len(paths) {
		t.Errorf("%d structured access records for %d requests\n%s", n, len(paths), jsonOut.String())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range plain {
		if strings.HasPrefix(line, "GET /") {
			t.Errorf("plain access line under -json-log: %q", line)
		}
	}
}
