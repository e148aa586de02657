package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/delta"
	"repro/internal/dil"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/ontoscore"
)

// Live incremental indexing. EnableDelta overlays the immutable
// generation machinery with a mutable delta segment fed by a
// crash-safe write-ahead log: POST/DELETE /admin/ingest applies a
// single-document add, replace, or delete, acknowledged only after the
// operation is fsynced into the WAL — an acknowledged ingest survives
// a kill at any instruction and is searchable immediately, at a cost
// independent of corpus size. A background compactor periodically
// folds the delta into a fresh base generation through the ordinary
// reload path (materialize → WAL truncate → reload+rebase); a failed
// compaction keeps the old generation serving, and the WAL replays on
// the next start.
//
// All admin mutations — /admin/ingest, /admin/reload, SIGHUP reloads,
// and compaction cycles — serialize behind one admin gate; concurrent
// HTTP callers are answered 409 with Retry-After instead of queueing.

// DeltaConfig configures live ingestion.
type DeltaConfig struct {
	// WALPath is the write-ahead log file (created if absent). Required.
	WALPath string
	// Ingest carries the validation and quarantine configuration of the
	// live path: Limits guards the parse, ValidateCDA gates structural
	// checks, SourceDir (when set) is where compaction materializes
	// documents and where quarantine artifacts land.
	Ingest ingest.Config
	// CompactInterval is the background compaction cadence; <= 0
	// disables the timer (compaction then runs only on thresholds).
	CompactInterval time.Duration
	// CompactMaxDocs triggers an early compaction at this many live
	// delta documents (<= 0: no trigger).
	CompactMaxDocs int
	// CompactMaxTombstones triggers at this many suppressed documents
	// (<= 0: no trigger).
	CompactMaxTombstones int
}

// lockAdmin acquires the admin mutation gate, blocking (SIGHUP reloads
// and programmatic Reload calls wait their turn).
func (s *Server) lockAdmin() { s.admin <- struct{}{} }

// tryLockAdmin acquires the gate without blocking; HTTP admin handlers
// use it so a concurrent mutation answers 409 instead of queueing, and
// the compactor uses it to skip a cycle benignly.
func (s *Server) tryLockAdmin() bool {
	select {
	case s.admin <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) unlockAdmin() { <-s.admin }

func writeAdminBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusConflict, "another admin mutation is in progress, retry later")
}

// EnableDelta opens (and replays) the WAL, builds the delta segment
// over the active generation, and wires it into the query path — the
// generation's systems and, when sharding is enabled, every shard
// slot. Call once, before serving traffic. The background compactor
// starts only when a reloader is configured and Ingest.SourceDir is
// set (compaction materializes into the source directory and reloads
// from it).
func (s *Server) EnableDelta(cfg DeltaConfig) error {
	if cfg.WALPath == "" {
		return fmt.Errorf("delta: WALPath is required")
	}
	if s.seg != nil {
		return fmt.Errorf("delta: already enabled")
	}
	s.dcfg = cfg
	g := s.gen.Load()
	var owner func(name string) int
	if s.cluster != nil {
		owner = s.cluster.OwnerOfName
	}
	// The base statistics snapshot is the full-text stage over the full
	// corpus — strategy-independent, so any system's builder answers.
	first := ontoscore.Strategies()[0]
	seg := delta.NewSegment(g.corpus, g.systems[first].Builder().LocalTextStats(), delta.Config{
		Coll:       g.coll,
		Strategies: ontoscore.Strategies(),
		DIL:        s.cfg.DIL,
		Limits:     cfg.Ingest.Limits,
		Owner:      owner,
	})
	seg.SetBaseProvider(s.baseBuilder)

	// Open and replay the WAL before any serving-side wiring: a failed
	// replay must leave the active generation exactly as it was, with no
	// overlays or live statistics views referencing an abandoned,
	// half-applied segment.
	wal, err := delta.OpenWAL(cfg.WALPath, s.logf)
	if err != nil {
		return err
	}
	replayed := 0
	for _, op := range wal.Ops() {
		if err := seg.Apply(op); err != nil {
			var unknown delta.ErrUnknownDocument
			if errors.As(err, &unknown) {
				// A delete whose target a pre-crash compaction already
				// unlinked; skipping it is the correct replay.
				s.logf("server: delta replay: skipping seq %d: %v", op.Seq, err)
				continue
			}
			wal.Close()
			return fmt.Errorf("delta: replaying %s: %w", cfg.WALPath, err)
		}
		replayed++
	}

	s.seg = seg
	s.wal = wal
	s.wireGeneration(g)
	if s.cluster != nil {
		s.cluster.InstallDelta(s.seg, s.baseBuilder)
	}
	if replayed > 0 {
		s.logf("server: delta WAL replayed %d operations (%d live documents, %d tombstones)",
			replayed, s.seg.Docs(), s.seg.Tombstones())
	}

	s.compactor = delta.NewCompactor(delta.CompactorConfig{
		Interval:      cfg.CompactInterval,
		MaxDocs:       cfg.CompactMaxDocs,
		MaxTombstones: cfg.CompactMaxTombstones,
		Run:           s.compactCycle,
		Pending: func() (docs, tombstones, walRecords int) {
			return s.seg.Docs(), s.seg.Tombstones(), s.wal.Count()
		},
		Logf: s.logf,
	})
	if s.reloader != nil && cfg.Ingest.SourceDir != "" {
		s.compactor.Start()
	}

	s.reg.GaugeFunc("xontorank_delta_documents",
		"Live documents in the delta segment (not yet compacted).",
		func() float64 { return float64(s.seg.Docs()) })
	s.reg.GaugeFunc("xontorank_delta_tombstones",
		"Suppressed documents (tombstoned base plus superseded delta).",
		func() float64 { return float64(s.seg.Tombstones()) })
	s.reg.GaugeFunc("xontorank_delta_wal_pending",
		"WAL records not yet folded into a base generation.",
		func() float64 { return float64(s.wal.Count()) })
	s.reg.GaugeFunc("xontorank_delta_last_compaction_seconds",
		"Seconds since the last successful compaction (-1 before the first).",
		func() float64 {
			t := s.compactor.LastSuccess()
			if t.IsZero() {
				return -1
			}
			return time.Since(t).Seconds()
		})
	return nil
}

// baseBuilder returns the ACTIVE generation's builder for a strategy:
// the calibration authority for both the delta builders and (sharded)
// every slot's builders. Reading through the atomic pointer keeps the
// authority current across generation swaps.
func (s *Server) baseBuilder(st ontoscore.Strategy) *dil.Builder {
	return s.gen.Load().systems[st].Builder()
}

// wireGeneration attaches the segment to a generation's systems: live
// statistics views and calibrators on its builders, overlays on the
// engines, auxiliary documents for hydration. The generation must not
// be serving yet (construction time, before swap) — which is also why
// the stats view and calibrator target THIS generation's own builders
// instead of resolving through s.gen.Load(): during a reload the
// atomic pointer still names the old, still-serving generation, and
// installing there would race its lock-free query readers while
// leaving the new generation's builders unwired.
func (s *Server) wireGeneration(g *generation) {
	for st, sys := range g.systems {
		sys := sys
		s.seg.InstallBase(st, func() *dil.Builder { return sys.Builder() })
		sys.SetOverlay(s.seg.Overlay(st, -1))
		sys.SetAuxDocs(s.seg)
	}
}

// Delta returns the live segment (nil when EnableDelta was not
// called); tests inspect it.
func (s *Server) Delta() *delta.Segment { return s.seg }

// Compactor returns the background compactor (nil without delta).
func (s *Server) Compactor() *delta.Compactor { return s.compactor }

// CloseDelta stops the compactor and closes the WAL; call on shutdown.
func (s *Server) CloseDelta() {
	if s.compactor != nil {
		s.compactor.Stop()
	}
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

// epoch is the serving-layer cache epoch: the generation number in the
// high bits and, under live ingestion, the delta segment version in
// the low 32 — every applied ingest moves the epoch, so cached results
// can never survive a mutation they predate.
func (s *Server) epoch(g *generation) uint64 {
	if s.seg == nil {
		return g.Num
	}
	return g.Num<<32 | (s.seg.Version() & 0xffffffff)
}

// purgeKeywordCaches drops every live system's on-demand keyword cache
// after an applied ingest. Stale entries are already unreachable —
// keys are tagged with the overlay version — so this is memory
// hygiene, not correctness.
func (s *Server) purgeKeywordCaches() {
	g := s.gen.Pin()
	for _, sys := range g.systems {
		sys.PurgeKeywordCache()
	}
	s.gen.Release(g)
	if s.cluster != nil {
		s.cluster.PurgeKeywordCaches()
	}
}

// IngestResponse is the /admin/ingest payload for an accepted
// operation.
type IngestResponse struct {
	Op       string `json:"op"`
	Name     string `json:"name"`
	Seq      uint64 `json:"seq"`
	Version  uint64 `json:"version"`
	Pending  int    `json:"walPending"`
	Docs     int    `json:"deltaDocs"`
	Deads    int    `json:"tombstones"`
	Duration string `json:"took"`
}

// sanitizeDocName canonicalizes the ?name= parameter: the ".xml"
// suffix is optional (stored names never carry it), and anything that
// could escape the source directory — separators, dot-dot, hidden
// files — is rejected.
func sanitizeDocName(raw string) (string, error) {
	name := strings.TrimSuffix(raw, ".xml")
	if name == "" {
		return "", fmt.Errorf("missing or empty document name")
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("document name %q must be a plain file name", raw)
	}
	return name, nil
}

func (s *Server) ingestCounter(op, outcome string) {
	s.reg.Counter("xontorank_ingest_total", "Live ingest operations by op and outcome.",
		obs.Label{Key: "op", Value: op}, obs.Label{Key: "outcome", Value: outcome}).Inc()
}

// handleAdminIngest is the live single-document mutation endpoint:
// POST /admin/ingest?name=<doc> with the document body adds or
// replaces, DELETE /admin/ingest?name=<doc> tombstones. The operation
// is validated (and rejected bodies quarantined) exactly like the
// directory pipeline, fsynced into the WAL before the response — the
// ack means the mutation survives any crash — and applied to the delta
// segment, making it searchable immediately.
func (s *Server) handleAdminIngest(w http.ResponseWriter, r *http.Request) {
	_, sp := obs.StartSpan(r.Context(), "admin.ingest")
	defer sp.End()
	if s.seg == nil {
		writeError(w, http.StatusNotImplemented, "live ingestion is not enabled")
		return
	}
	var kind delta.OpKind
	switch r.Method {
	case http.MethodPost:
		kind = delta.OpPut
	case http.MethodDelete:
		kind = delta.OpDelete
	default:
		w.Header().Set("Allow", "POST, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "ingest requires POST (put) or DELETE")
		return
	}
	name, err := sanitizeDocName(r.URL.Query().Get("name"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp.SetAttr("op", kind.String())
	sp.SetAttr("name", name)

	var body []byte
	if kind == delta.OpPut {
		limit := s.dcfg.Ingest.Limits.MaxBytes
		if limit <= 0 {
			limit = 64 << 20
		}
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
			return
		}
		if len(body) == 0 {
			writeError(w, http.StatusBadRequest, "empty document body")
			return
		}
	}

	start := time.Now()
	if !s.tryLockAdmin() {
		s.ingestCounter(kind.String(), "conflict")
		writeAdminBusy(w)
		return
	}
	defer s.unlockAdmin()

	if kind == delta.OpPut {
		// The same validation and quarantine semantics as the directory
		// pipeline: a rejected body lands in quarantine with a reason
		// file and a manifest record, then answers 422.
		if _, stage, verr := ingest.ValidateBytes(s.dcfg.Ingest, body); verr != nil {
			if s.dcfg.Ingest.SourceDir != "" {
				if qerr := ingest.QuarantineBytes(s.dcfg.Ingest, name+".xml", body, stage, verr); qerr != nil {
					s.logf("server: ingest quarantine failed for %s: %v", name, qerr)
				}
			}
			s.ingestCounter(kind.String(), "quarantined")
			sp.SetAttr("quarantined", true)
			writeError(w, http.StatusUnprocessableEntity, "document rejected at %s: %v", stage, verr)
			return
		}
	} else if !s.seg.Has(name) {
		s.ingestCounter(kind.String(), "unknown")
		writeError(w, http.StatusNotFound, "no live document %q", name)
		return
	}

	// Durability point: the fsynced WAL append. A failure here is NOT
	// an ack — the append rolled back, the client must retry.
	op, err := s.wal.Append(kind, name, body)
	if err != nil {
		if errors.Is(err, delta.ErrRecordTooLarge) {
			// Documents this size only get here when Ingest.Limits.MaxBytes
			// is configured at or above the WAL frame limit; refuse cleanly
			// rather than acknowledging an op the log cannot hold.
			s.ingestCounter(kind.String(), "too_large")
			writeError(w, http.StatusRequestEntityTooLarge, "document too large for the write-ahead log: %v", err)
			return
		}
		s.ingestCounter(kind.String(), "error")
		s.logf("server: ingest WAL append failed (not acknowledged): %v", err)
		writeError(w, http.StatusInternalServerError, "write-ahead log append failed, operation not applied: %v", err)
		return
	}
	if err := s.seg.Apply(op); err != nil {
		// The op is durable but not yet live; it will apply on the next
		// replay. This cannot happen for bodies that passed validation
		// (same parser, same limits) — report loudly if it ever does.
		s.ingestCounter(kind.String(), "error")
		s.logf("server: ingest apply failed for logged seq %d: %v", op.Seq, err)
		writeError(w, http.StatusInternalServerError, "operation logged but not applied: %v", err)
		return
	}
	s.purgeKeywordCaches()
	s.ingestCounter(kind.String(), "ok")
	s.compactor.MaybeKick()
	sp.SetAttr("seq", op.Seq)
	writeJSON(w, http.StatusOK, IngestResponse{
		Op:       kind.String(),
		Name:     name,
		Seq:      op.Seq,
		Version:  s.seg.Version(),
		Pending:  s.wal.Count(),
		Docs:     s.seg.Docs(),
		Deads:    s.seg.Tombstones(),
		Duration: time.Since(start).Round(time.Microsecond).String(),
	})
}

// compactCycle is the compactor's Run hook: one full fold of the delta
// into a fresh base generation, skipped benignly when another admin
// mutation holds the gate.
func (s *Server) compactCycle(ctx context.Context) error {
	if !s.tryLockAdmin() {
		return nil // another mutation in progress; the next trigger retries
	}
	defer s.unlockAdmin()
	return s.compactLocked(ctx)
}

func (s *Server) compactLocked(ctx context.Context) error {
	if s.seg.Empty() && s.wal.Count() == 0 {
		return nil
	}
	if s.reloader == nil || s.dcfg.Ingest.SourceDir == "" {
		return fmt.Errorf("delta: compaction requires a reloader and a source directory")
	}
	start := time.Now()
	// 1. Make the delta durable in the source directory (idempotent;
	// any failure leaves the WAL intact and the old generation serving).
	if err := s.seg.Materialize(s.dcfg.Ingest.SourceDir); err != nil {
		return err
	}
	// 2. The log's effects are on disk: empty it. A crash between 1 and
	// 2 replays onto already-materialized documents — idempotent.
	if err := delta.TruncateWAL(s.wal); err != nil {
		return err
	}
	// 3. Fold into a fresh generation; the rebase inside reloadLocked
	// empties the delta (the WAL has no records left to replay).
	status, err := s.reloadLocked(ctx)
	if err != nil {
		return err
	}
	s.logf("server: compaction folded delta into generation %d (%d documents) in %v",
		status.Generation, status.Documents, time.Since(start).Round(time.Millisecond))
	return nil
}

// DeltaStatus is the /readyz live-ingestion block: the delta lag an
// operator watches (how much acknowledged work is not yet folded into
// a base generation).
type DeltaStatus struct {
	Enabled bool `json:"enabled"`
	// WALPending is the number of acknowledged operations still only in
	// the log.
	WALPending int `json:"walPending"`
	// Documents is the live delta document count.
	Documents int `json:"documents"`
	// Tombstones counts suppressed documents (deleted base + superseded
	// delta versions).
	Tombstones int `json:"tombstones"`
	// AppliedSeq is the last WAL sequence folded into the live state.
	AppliedSeq uint64 `json:"appliedSeq"`
	// Version is the segment's monotonic state version.
	Version uint64 `json:"version"`
	// CompactionRuns / CompactionFailures count background cycles.
	CompactionRuns     uint64 `json:"compactionRuns"`
	CompactionFailures uint64 `json:"compactionFailures"`
	// SecondsSinceCompaction is the age of the last successful
	// compaction; -1 before the first.
	SecondsSinceCompaction float64 `json:"secondsSinceCompaction"`
}

func (s *Server) deltaStatus() *DeltaStatus {
	if s.seg == nil {
		return nil
	}
	st := &DeltaStatus{
		Enabled:                true,
		WALPending:             s.wal.Count(),
		Documents:              s.seg.Docs(),
		Tombstones:             s.seg.Tombstones(),
		AppliedSeq:             s.seg.AppliedSeq(),
		Version:                s.seg.Version(),
		SecondsSinceCompaction: -1,
	}
	st.CompactionRuns, st.CompactionFailures = s.compactor.Runs()
	if t := s.compactor.LastSuccess(); !t.IsZero() {
		st.SecondsSinceCompaction = time.Since(t).Seconds()
	}
	return st
}
