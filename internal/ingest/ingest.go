// Package ingest is the validating, quarantining, checkpointed
// ingestion pipeline between upstream document feeds and the
// searchable corpus. It exists because an EMR system ingests records
// from many producers it does not control: one truncated upload must
// cost exactly one document, never the batch, and a crash mid-ingest
// must resume where it stopped.
//
// Per document, the pipeline:
//
//	read ──► guarded parse (size/depth limits) ──► CDA validation
//	   │ failure at any stage                          │ ok
//	   ▼                                               ▼
//	quarantine/<file> + <file>.reason.json      manifest: ok
//	manifest: quarantined                       corpus entry
//
// The manifest (one fsynced JSON line per terminal document, see
// Manifest) makes the pipeline resumable: a rerun carries forward
// every manifested document whose content hash is unchanged, so a
// crash re-processes only unfinished documents. Quarantined files are
// moved out of the source directory with a machine-readable reason
// file beside them for triage.
package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Failpoints at the pipeline's failure-prone boundaries (armed by the
// fault-lane tests; inert in production).
const (
	// FPRead fires before each source file read.
	FPRead = "ingest.read"
	// FPValidate fires before each document validation (error mode makes
	// a healthy document fail validation and be quarantined).
	FPValidate = "ingest.validate"
	// FPQuarantine fires before each quarantine move.
	FPQuarantine = "ingest.quarantine"
)

// Config locates and bounds one ingestion run.
type Config struct {
	// SourceDir holds the .xml documents to ingest.
	SourceDir string
	// QuarantineDir receives rejected files; default is
	// <SourceDir>/../quarantine.
	QuarantineDir string
	// ManifestPath is the checkpoint file; default is
	// <SourceDir>/../ingest.manifest.
	ManifestPath string
	// Limits guard each parse; the zero value means xmltree.DefaultLimits.
	Limits xmltree.Limits
	// ValidateCDA additionally requires ClinicalDocument structure
	// (ValidateCDA function) beyond well-formed XML.
	ValidateCDA bool
	// Logf receives progress and quarantine warnings; nil means
	// log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	parent := filepath.Dir(strings.TrimSuffix(c.SourceDir, string(filepath.Separator)))
	if c.QuarantineDir == "" {
		c.QuarantineDir = filepath.Join(parent, "quarantine")
	}
	if c.ManifestPath == "" {
		c.ManifestPath = filepath.Join(parent, "ingest.manifest")
	}
	if c.Limits == (xmltree.Limits{}) {
		c.Limits = xmltree.DefaultLimits()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// FileOutcome is one newly quarantined document in a Report.
type FileOutcome struct {
	Name   string `json:"name"`
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
}

// Report summarizes one ingestion run.
type Report struct {
	// Total is the number of source files considered.
	Total int `json:"total"`
	// Ingested is how many documents were newly validated this run.
	Ingested int `json:"ingested"`
	// Resumed is how many documents were carried forward from the
	// manifest (unchanged hash) without re-validation.
	Resumed int `json:"resumed"`
	// Quarantined is how many documents were newly quarantined this run.
	Quarantined int `json:"quarantined"`
	// TornManifest reports that a partial manifest record (crash
	// artifact) was found and dropped.
	TornManifest bool `json:"tornManifest,omitempty"`
	// Failures details the newly quarantined documents.
	Failures []FileOutcome `json:"failures,omitempty"`
	// Duration is the wall-clock run time.
	Duration time.Duration `json:"duration"`
}

// Summary renders the report as one log-friendly line.
func (r *Report) Summary() string {
	if r == nil {
		return "no ingest run"
	}
	return fmt.Sprintf("ingested %d (%d resumed) of %d, quarantined %d in %v",
		r.Ingested+r.Resumed, r.Resumed, r.Total, r.Quarantined, r.Duration.Round(time.Millisecond))
}

// Result is a completed ingestion: the corpus of accepted documents
// (IDs assigned in sorted file-name order, matching xmltree.LoadDir)
// plus the run report.
type Result struct {
	Corpus *xmltree.Corpus
	Report *Report
}

// Reason is the machine-readable quarantine record written beside each
// rejected file.
type Reason struct {
	// File is the original file name.
	File string `json:"file"`
	// Hash is the SHA-256 of the rejected content.
	Hash string `json:"hash"`
	// Stage names the failed pipeline stage: "read", "parse", or
	// "validate".
	Stage string `json:"stage"`
	// Error is the failure message.
	Error string `json:"error"`
	// Time is the quarantine timestamp (RFC 3339).
	Time string `json:"time"`
}

// Run ingests cfg.SourceDir: every .xml file is validated in
// isolation, failures are quarantined, successes enter the returned
// corpus, and each terminal outcome is checkpointed in the manifest
// before the next file reaches its own. Run itself fails only on
// environmental errors — unreadable source directory, unwritable
// quarantine or manifest, context cancellation — never on document
// content.
//
// Files are read, hashed and parsed ahead on a few goroutines
// (parseAhead); everything with an effect — manifest, quarantine,
// report, corpus — happens on this goroutine in sorted-name order, so
// document IDs, the manifest's byte sequence and where a failing run
// stops are those of a one-file-at-a-time loop.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ctx, sp := obs.StartSpan(ctx, "ingest.run")
	defer sp.End()
	start := time.Now()

	entries, err := os.ReadDir(cfg.SourceDir)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	if err := os.MkdirAll(cfg.QuarantineDir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	man, err := OpenManifest(cfg.ManifestPath)
	if err != nil {
		return nil, err
	}
	defer man.Close()

	report := &Report{Total: len(names), TornManifest: man.Torn()}
	if report.TornManifest {
		cfg.Logf("ingest: dropped torn trailing manifest record (crash artifact)")
	}
	// However Run returns, the read-ahead goroutines are gone by then.
	ctx, cancel := context.WithCancel(ctx)
	var readers sync.WaitGroup
	defer func() { cancel(); readers.Wait() }()

	corpus := xmltree.NewCorpus()
	for next := range parseAhead(ctx, cfg, names, &readers) {
		var f parsedFile
		select {
		case f = <-next:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		doc, err := ingestOne(cfg, man, report, f)
		if err != nil {
			return nil, err
		}
		if doc != nil {
			corpus.Add(doc)
		}
	}
	if err := ctx.Err(); err != nil { // parseAhead stopped short
		return nil, fmt.Errorf("ingest: %w", err)
	}
	report.Duration = time.Since(start)
	sp.SetAttr("total", report.Total)
	sp.SetAttr("ingested", report.Ingested)
	sp.SetAttr("resumed", report.Resumed)
	sp.SetAttr("quarantined", report.Quarantined)
	return &Result{Corpus: corpus, Report: report}, nil
}

// parsedFile is the effect-free part of one file's ingestion.
type parsedFile struct {
	name    string
	buf     []byte
	readErr error
	hash    string            // SHA-256 of buf, hex
	doc     *xmltree.Document // guarded parse of buf ...
	perr    error             // ... or why it failed
}

func parseFile(cfg Config, name string, readErr error) parsedFile {
	f := parsedFile{name: name, readErr: readErr}
	if f.readErr == nil {
		f.buf, f.readErr = os.ReadFile(filepath.Join(cfg.SourceDir, name))
	}
	if f.readErr == nil {
		sum := sha256.Sum256(f.buf)
		f.hash = hex.EncodeToString(sum[:])
		f.doc, f.perr = xmltree.ParseLimited(bytes.NewReader(f.buf), cfg.Limits)
	}
	return f
}

// parseAhead runs parseFile over names on GOMAXPROCS goroutines and
// yields the results in names order, each as a one-shot channel; at
// most twice that many files are parsed and not yet taken. The FPRead
// failpoint is hit here, once per file in names order, so "fail the
// Nth read" means the same as without read-ahead. The goroutines are
// counted on wg and end when ctx does or the names run out.
func parseAhead(ctx context.Context, cfg Config, names []string, wg *sync.WaitGroup) <-chan (<-chan parsedFile) {
	type job struct {
		name    string
		readErr error
		out     chan<- parsedFile
	}
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan job)
	// The buffer is the read-ahead window: room for every worker to be
	// busy and as many results again waiting for the committer.
	ordered := make(chan (<-chan parsedFile), 2*workers)
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.out <- parseFile(cfg, j.name, j.readErr)
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(ordered)
		defer close(jobs)
		for _, name := range names {
			out := make(chan parsedFile, 1)
			select {
			case ordered <- out:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- job{name, faultinject.Hit(FPRead), out}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ordered
}

// ingestOne takes one file to a terminal state: (doc, nil) when it
// enters the corpus, (nil, nil) when quarantined, (nil, err) on an
// environmental failure that must abort the run.
func ingestOne(cfg Config, man *Manifest, report *Report, f parsedFile) (*xmltree.Document, error) {
	name, buf, hash := f.name, f.buf, f.hash
	if f.readErr != nil {
		// An unreadable file cannot be hashed or moved; quarantine the
		// record of it (reason file only) so the failure is visible, and
		// keep going — the next run retries it.
		return nil, quarantine(cfg, man, report, name, nil, "read", f.readErr)
	}

	if prev, ok := man.Lookup(name); ok && prev.Hash == hash {
		switch prev.Status {
		case StatusOK:
			// Checkpointed as validated and unchanged since: take the parse
			// for the corpus without re-running validation.
			if f.perr == nil {
				f.doc.Name = strings.TrimSuffix(name, ".xml")
				report.Resumed++
				return f.doc, nil
			}
			// The checkpoint lied (e.g. limits tightened since): fall
			// through to full validation.
		case StatusQuarantined:
			// Manifested as quarantined but still in the source dir: the
			// previous run crashed between the manifest append and the
			// move. Finish the move without a duplicate manifest record.
			if err := quarantineMove(cfg, name, buf, prev.Reason, hash); err != nil {
				return nil, err
			}
			report.Quarantined++
			report.Failures = append(report.Failures, FileOutcome{Name: name, Stage: "resume", Reason: prev.Reason})
			return nil, nil
		}
	}

	doc, stage, verr := validate(cfg, f.doc, f.perr)
	if verr != nil {
		return nil, quarantine(cfg, man, report, name, buf, stage, verr)
	}
	if err := man.Append(Entry{Name: name, Hash: hash, Bytes: int64(len(buf)), Status: StatusOK}); err != nil {
		return nil, err
	}
	doc.Name = strings.TrimSuffix(name, ".xml")
	report.Ingested++
	return doc, nil
}

// validate checks the outcome of a document's guarded parse (doc, or
// why it failed) and its structure, naming the failed stage.
func validate(cfg Config, doc *xmltree.Document, perr error) (*xmltree.Document, string, error) {
	if err := faultinject.Hit(FPValidate); err != nil {
		return nil, "validate", err
	}
	if perr != nil {
		return nil, "parse", perr
	}
	if cfg.ValidateCDA {
		if err := ValidateCDA(doc); err != nil {
			return nil, "validate", err
		}
	}
	return doc, "", nil
}

// quarantine checkpoints the rejection, moves the file out of the
// source directory, and writes the machine-readable reason beside it.
// Only environmental failures (manifest or quarantine dir unwritable)
// are returned as errors.
func quarantine(cfg Config, man *Manifest, report *Report, name string, buf []byte, stage string, cause error) error {
	hash := ""
	if buf != nil {
		sum := sha256.Sum256(buf)
		hash = hex.EncodeToString(sum[:])
	}
	reason := fmt.Sprintf("%s: %v", stage, cause)
	if err := man.Append(Entry{Name: name, Hash: hash, Bytes: int64(len(buf)), Status: StatusQuarantined, Reason: reason}); err != nil {
		return err
	}
	if buf != nil {
		if err := quarantineMove(cfg, name, buf, reason, hash); err != nil {
			return err
		}
	} else if err := writeReason(cfg, name, hash, stage, cause); err != nil {
		return err
	}
	report.Quarantined++
	report.Failures = append(report.Failures, FileOutcome{Name: name, Stage: stage, Reason: cause.Error()})
	cfg.Logf("ingest: quarantined %s (%s): %v", name, stage, cause)
	return nil
}

// quarantineMove relocates the rejected file (rename when possible,
// copy+remove across filesystems) and records why.
func quarantineMove(cfg Config, name string, buf []byte, reason, hash string) error {
	if err := faultinject.Hit(FPQuarantine); err != nil {
		return fmt.Errorf("ingest: quarantining %s: %w", name, err)
	}
	src := filepath.Join(cfg.SourceDir, name)
	dst := filepath.Join(cfg.QuarantineDir, name)
	if err := os.Rename(src, dst); err != nil {
		if werr := os.WriteFile(dst, buf, 0o644); werr != nil {
			return fmt.Errorf("ingest: quarantining %s: %w", name, werr)
		}
		if rerr := os.Remove(src); rerr != nil {
			return fmt.Errorf("ingest: quarantining %s: %w", name, rerr)
		}
	}
	stage, msg := splitReason(reason)
	return writeReason(cfg, name, hash, stage, errors.New(msg))
}

func splitReason(reason string) (stage, msg string) {
	if i := strings.Index(reason, ": "); i > 0 {
		return reason[:i], reason[i+2:]
	}
	return "unknown", reason
}

func writeReason(cfg Config, name, hash, stage string, cause error) error {
	rec := Reason{
		File:  name,
		Hash:  hash,
		Stage: stage,
		Error: cause.Error(),
		Time:  time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("ingest: reason for %s: %w", name, err)
	}
	path := filepath.Join(cfg.QuarantineDir, name+".reason.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("ingest: reason for %s: %w", name, err)
	}
	return nil
}
