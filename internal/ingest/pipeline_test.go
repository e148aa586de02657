package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/xmltree"
)

// runOneAtATime is Run without the read-ahead: parse a file, take it to
// its terminal state, only then touch the next. It is the order of
// effects Run promises to keep.
func runOneAtATime(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg = cfg.withDefaults()
	entries, err := os.ReadDir(cfg.SourceDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.QuarantineDir, 0o755); err != nil {
		t.Fatal(err)
	}
	man, err := OpenManifest(cfg.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	report := &Report{TornManifest: man.Torn()}
	corpus := xmltree.NewCorpus()
	for _, e := range entries { // ReadDir sorts by name
		if !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		report.Total++
		doc, err := ingestOne(cfg, man, report, parseFile(cfg, e.Name(), faultinject.Hit(FPRead)))
		if err != nil {
			t.Fatal(err)
		}
		if doc != nil {
			corpus.Add(doc)
		}
	}
	return &Result{Corpus: corpus, Report: report}
}

// Reading ahead must not reorder anything observable. Two identical
// directories — documents checkpointed by an earlier run, new
// documents, two that get quarantined, and a read that fails midway —
// end in the same corpus, the same manifest bytes, the same report and
// the same quarantine directory whether ingested by Run or one file at
// a time.
func TestRunKeepsOneAtATimeOrder(t *testing.T) {
	defer faultinject.DisableAll()
	type outcome struct {
		docs       []string
		manifest   string
		report     Report
		quarantine map[string]Reason
	}
	ingest := func(run func(Config) *Result) outcome {
		base := t.TempDir()
		src := filepath.Join(base, "docs")
		if err := os.Mkdir(src, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg := Config{SourceDir: src, ValidateCDA: true, Logf: t.Logf}
		// An earlier run checkpointed the first three documents.
		writeTestCorpus(t, src, 3)
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		writeTestCorpus(t, src, 12)
		write(t, src, "patient-0005a.xml", "<ClinicalDocument><unclosed>")
		write(t, src, "zz-notcda.xml", `<Order><id extension="1"/>x</Order>`)

		faultinject.Enable(FPRead, faultinject.Spec{After: 7, Count: 1})
		res := run(cfg)
		faultinject.DisableAll()

		out := outcome{report: *res.Report, quarantine: map[string]Reason{}}
		out.report.Duration = 0
		for _, d := range res.Corpus.Docs() {
			out.docs = append(out.docs, fmt.Sprintf("%s#%d", d.Name, d.ID))
		}
		buf, err := os.ReadFile(filepath.Join(base, "ingest.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		out.manifest = string(buf)
		entries, err := os.ReadDir(filepath.Join(base, "quarantine"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			var r Reason
			if strings.HasSuffix(e.Name(), ".reason.json") {
				buf, err := os.ReadFile(filepath.Join(base, "quarantine", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(buf, &r); err != nil {
					t.Fatal(err)
				}
				r.Time = ""
			}
			out.quarantine[e.Name()] = r
		}
		return out
	}

	want := ingest(func(cfg Config) *Result { return runOneAtATime(t, cfg) })
	got := ingest(func(cfg Config) *Result {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	if want.report.Resumed != 3 || want.report.Quarantined != 3 || want.report.Ingested != 8 {
		t.Fatalf("the scenario did not exercise resume, quarantine and a failed read: %+v", want.report)
	}
	if !reflect.DeepEqual(got.docs, want.docs) {
		t.Errorf("corpus documents\n got %v\nwant %v", got.docs, want.docs)
	}
	if got.manifest != want.manifest {
		t.Errorf("manifest bytes\n got %s\nwant %s", got.manifest, want.manifest)
	}
	if !reflect.DeepEqual(got.report, want.report) {
		t.Errorf("report\n got %+v\nwant %+v", got.report, want.report)
	}
	if !reflect.DeepEqual(got.quarantine, want.quarantine) {
		t.Errorf("quarantine directory\n got %+v\nwant %+v", got.quarantine, want.quarantine)
	}
}

// A run cancelled while files are still being read ahead fails with the
// context's error and takes its goroutines with it.
func TestRunCancelMidRunLeaksNoGoroutine(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "docs")
	if err := os.Mkdir(src, 0o755); err != nil {
		t.Fatal(err)
	}
	names := writeTestCorpus(t, src, 40)
	sort.Strings(names)
	// The second file in name order is quarantined, which logs — and the
	// log hook cancels: the read-ahead is then several files past it.
	write(t, src, names[0]+"-bad.xml", "<ClinicalDocument><unclosed>")

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{SourceDir: src, ValidateCDA: true, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		cancel()
	}}
	_, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	m, err := OpenManifest(filepath.Join(base, "ingest.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := m.Len()
	m.Close()
	if checkpointed != 2 {
		t.Errorf("%d documents checkpointed, want the 2 before the cancellation", checkpointed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
