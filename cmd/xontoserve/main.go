// Command xontoserve runs the XOntoRank HTTP search service over a data
// directory produced by `xontorank gen` (or over freshly generated
// synthetic data with -generate).
//
// Usage:
//
//	xontoserve -data data -addr :8080
//	xontoserve -generate -docs 100 -concepts 1000 -addr :8080
//
// Documents are ingested through internal/ingest: each file is parsed
// and validated in isolation under size/depth guards (-max-file-size,
// -max-depth, -validate); failures are quarantined to
// <data>/quarantine with machine-readable reason files, and a
// checkpointed manifest (<data>/ingest.manifest) makes ingestion
// resumable — a crash mid-ingest re-processes only unfinished
// documents on the next start.
//
// The corpus serves as an immutable generation. SIGHUP or POST
// /admin/reload re-runs ingestion and builds the next generation while
// the old one keeps serving, then swaps atomically: zero downtime, old
// generation drained and released. /readyz reports the active
// generation and last-ingest summary.
//
// The serving layer (internal/serving) is tuned with -cache-size,
// -cache-ttl, -max-concurrent, -queue-wait, and -timeout; overload is
// answered with 429 and deadline expiry with 504. The ontology path is
// guarded by a per-strategy circuit breaker (-breaker-threshold,
// -breaker-cooldown) with bounded retries (-retry-max); when it trips,
// search degrades to IR-only ranking with "degraded": true instead of
// failing. The process shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight requests.
//
// With -live-ingest, POST/DELETE /admin/ingest applies single-document
// adds, replacements, and deletes without a rebuild: each operation is
// fsynced into a write-ahead log before it is acknowledged (a kill at
// any instruction loses nothing), becomes searchable immediately
// through a delta segment overlaying the base generation, and is
// periodically folded into a fresh generation by a background
// compactor (-compact-interval, -compact-max-docs,
// -compact-max-tombstones). Admin mutations — ingest, reload, SIGHUP,
// compaction — serialize behind one gate; concurrent HTTP callers get
// 409 with Retry-After.
//
// Federation: -peers makes this node a scatter-gather coordinator over
// remote xontoserve peers (each started with -shard-role=peer), with
// per-peer connection pools, circuit breakers, bounded retries, and
// optional hedged requests (-peer-hedge-after, p95-derived delay).
// Cross-node IR statistics are exchanged at startup and on every
// reload, so federated ranking is byte-identical to a single node over
// the union corpus; a slow, dead, or partitioned peer degrades the
// answer to partial ("degraded": true plus a Warning header) within
// -peer-timeout instead of failing it. -live-ingest and federation are
// mutually exclusive.
//
// With -mmap-index, each generation serves its postings from
// memory-mapped single-file arenas under <data>/arena (per-shard
// subdirectories when -shards > 1) instead of decoding the index to
// heap: cold start is a superblock parse, the OS page cache tiers the
// postings, and reload swaps are mmap-flip-munmap on the generation
// refcount. -arena-rebuild (default true) rewrites missing or stale
// files from the live corpus; any unusable file falls back to heap
// serving for that strategy. Ignored with -peers (federated
// statistics cannot be fingerprint-pinned).
//
// Endpoints: /search, /fragment, /concepts, /ontoscore, /stats,
// /metrics, /admin/reload, /admin/ingest (with -live-ingest), /healthz
// (shallow liveness), /readyz (deep readiness: data directory
// reachable, corpus loaded, breaker states, active generation, delta
// lag), /shard/search + /shard/stats + /shard/fragment (with
// -shard-role=peer) — see internal/server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/peer"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

func main() {
	a := newApp(flag.CommandLine, os.Args[1:])
	if err := a.run(context.Background()); err != nil {
		log.Fatal("xontoserve: ", err)
	}
}

// app is the whole server process in testable form: flags parsed into
// fields, run(ctx) owning the listener, the signal handlers, and the
// reload loop. Tests construct one, run it on :0, and drive it with
// real signals.
type app struct {
	addr     string
	data     string
	generate bool
	docs     int
	concepts int
	seed     int64

	validate    bool
	maxFileSize int64
	maxDepth    int

	debug   bool
	jsonLog bool

	shards       int
	shardTimeout time.Duration
	shardQuorum  int

	shardRole      string
	peers          string
	peerTimeout    time.Duration
	peerHedgeAfter time.Duration

	liveIngest      bool
	walPath         string
	compactInterval time.Duration
	compactMaxDocs  int
	compactMaxTombs int

	mmapIndex    bool
	arenaRebuild bool

	scfg          serving.Config
	ccfg          core.Config
	shutdownGrace time.Duration
	logf          func(format string, args ...any)

	// ready is closed once the listener is bound, signal handling is
	// installed, and requests are being served; boundAddr then holds the
	// real listen address (useful with ":0").
	ready     chan struct{}
	readyOnce sync.Once
	boundAddr string
}

func newApp(fs *flag.FlagSet, args []string) *app {
	a := &app{scfg: serving.DefaultConfig(), ccfg: core.DefaultConfig(), logf: log.Printf,
		ready: make(chan struct{})}
	lim := xmltree.DefaultLimits()
	fs.StringVar(&a.addr, "addr", ":8080", "listen address")
	fs.StringVar(&a.data, "data", "", "data directory written by xontorank gen")
	fs.BoolVar(&a.generate, "generate", false, "serve freshly generated synthetic data")
	fs.IntVar(&a.docs, "docs", 100, "documents to generate with -generate")
	fs.IntVar(&a.concepts, "concepts", 1000, "synthetic concepts with -generate")
	fs.Int64Var(&a.seed, "seed", 1, "generation seed")
	fs.BoolVar(&a.validate, "validate", true, "validate CDA structure during ingest (failures are quarantined)")
	fs.Int64Var(&a.maxFileSize, "max-file-size", lim.MaxBytes, "per-document size guard in bytes (0 disables)")
	fs.IntVar(&a.maxDepth, "max-depth", lim.MaxDepth, "per-document element nesting guard (0 disables)")
	fs.IntVar(&a.shards, "shards", 1, "document shards served by scatter-gather (1 = single-node)")
	fs.DurationVar(&a.shardTimeout, "shard-timeout", shard.DefaultTimeout,
		"per-shard query budget; a slower shard is skipped and the answer marked partial")
	fs.IntVar(&a.shardQuorum, "shard-quorum", 0, "shards that must be ready for /readyz (0 = majority)")
	fs.StringVar(&a.shardRole, "shard-role", "auto",
		"auto | coordinator | peer: a peer mounts the internal /shard API for a remote coordinator; "+
			"a coordinator federates over -peers; auto infers coordinator when -peers is set")
	fs.StringVar(&a.peers, "peers", "",
		"comma-separated base URLs of remote shard peers (http://host:port); enables federated scatter-gather")
	fs.DurationVar(&a.peerTimeout, "peer-timeout", 2*time.Second,
		"per-peer RPC budget; a slower peer is skipped and the answer marked partial")
	fs.DurationVar(&a.peerHedgeAfter, "peer-hedge-after", 0,
		"hedge-delay floor: re-issue a straggling peer search after max(this, observed p95); 0 disables hedging")
	fs.BoolVar(&a.liveIngest, "live-ingest", false,
		"enable POST/DELETE /admin/ingest: crash-safe WAL'd single-document mutations, searchable immediately (requires -data)")
	fs.StringVar(&a.walPath, "wal", "", "write-ahead log path for -live-ingest (default <data>/delta.wal)")
	fs.DurationVar(&a.compactInterval, "compact-interval", time.Minute,
		"background compaction cadence folding the delta into a fresh generation (0 disables the timer)")
	fs.IntVar(&a.compactMaxDocs, "compact-max-docs", 256,
		"live delta documents that trigger an early compaction (0 disables)")
	fs.IntVar(&a.compactMaxTombs, "compact-max-tombstones", 512,
		"tombstones that trigger an early compaction (0 disables)")
	fs.BoolVar(&a.mmapIndex, "mmap-index", false,
		"serve postings zero-copy from single-file index arenas under <data>/arena: millisecond cold start "+
			"when compatible arenas exist, heap fallback otherwise (requires -data)")
	fs.BoolVar(&a.arenaRebuild, "arena-rebuild", true,
		"with -mmap-index, rebuild missing or stale arena files at startup, on reload, and after compaction "+
			"(false: only pre-built files from `xontorank index -arena` are attached)")
	fs.BoolVar(&a.debug, "debug", false, "expose net/http/pprof under /debug/pprof/ (admin use only)")
	fs.BoolVar(&a.jsonLog, "json-log", false, "emit structured JSON access/degradation logs on stderr (trace-correlated)")
	fs.IntVar(&a.scfg.CacheCapacity, "cache-size", a.scfg.CacheCapacity, "query result cache capacity (entries)")
	fs.DurationVar(&a.scfg.CacheTTL, "cache-ttl", a.scfg.CacheTTL, "query result cache TTL (0 disables expiry)")
	fs.IntVar(&a.scfg.MaxConcurrent, "max-concurrent", a.scfg.MaxConcurrent, "maximum concurrent search executions")
	fs.DurationVar(&a.scfg.QueueWait, "queue-wait", a.scfg.QueueWait, "how long a request may wait for a slot before a 429")
	fs.DurationVar(&a.scfg.Timeout, "timeout", a.scfg.Timeout, "per-search deadline before a 504")
	fs.DurationVar(&a.shutdownGrace, "shutdown-grace", 10*time.Second, "drain time for in-flight requests on SIGINT/SIGTERM")
	fs.IntVar(&a.ccfg.Query.Breaker.Threshold, "breaker-threshold", resilience.DefaultBreakerThreshold,
		"ontology-path failures within the window that trip the breaker (search then degrades to IR-only)")
	fs.DurationVar(&a.ccfg.Query.Breaker.Cooldown, "breaker-cooldown", resilience.DefaultBreakerCooldown,
		"how long a tripped breaker stays open before probing the ontology path again")
	fs.IntVar(&a.ccfg.Query.Retry.MaxAttempts, "retry-max", resilience.DefaultMaxAttempts,
		"ontology-path build attempts (first call included) before a keyword degrades")
	fs.BoolVar(&a.ccfg.Query.LegacyMerge, "legacy-merge", false,
		"route DIL merges through the reference implementation instead of the loser-tree fast path (XONTORANK_MERGE=legacy does the same)")
	fs.BoolVar(&a.ccfg.Query.ExhaustiveMerge, "no-topk-prune", false,
		"disable block-max top-k pruning: the fast merge scores every posting before ranking (XONTORANK_TOPK=exhaustive does the same)")
	fs.Parse(args)
	return a
}

// validateFederation rejects flag combinations the federation cannot
// serve correctly.
func (a *app) validateFederation() error {
	switch a.shardRole {
	case "auto", "coordinator", "peer":
	default:
		return fmt.Errorf("-shard-role must be auto, coordinator, or peer (got %q)", a.shardRole)
	}
	if a.shardRole == "coordinator" && a.peers == "" {
		return fmt.Errorf("-shard-role=coordinator requires -peers")
	}
	if a.shardRole == "peer" && a.peers != "" {
		return fmt.Errorf("-shard-role=peer cannot itself federate over -peers (single coordinator tier only)")
	}
	if a.liveIngest && (a.peers != "" || a.shardRole == "peer") {
		return fmt.Errorf("-live-ingest is incompatible with federation: " +
			"a live delta segment would drift this node's statistics away from the cluster-wide merge")
	}
	return nil
}

// peerClients dials one client per -peers entry (pooled connections,
// breaker, retries, and hedging per the peer-* flags).
func (a *app) peerClients() ([]*peer.Client, error) {
	if a.peers == "" {
		return nil, nil
	}
	var clients []*peer.Client
	for _, raw := range strings.Split(a.peers, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		pc, err := peer.NewClient(raw, peer.Options{
			Timeout:    a.peerTimeout,
			HedgeAfter: a.peerHedgeAfter,
		})
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, fmt.Errorf("-peers: %w", err)
		}
		clients = append(clients, pc)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("-peers: no peer URLs given")
	}
	return clients, nil
}

func (a *app) limits() xmltree.Limits {
	return xmltree.Limits{MaxBytes: a.maxFileSize, MaxDepth: a.maxDepth}
}

func (a *app) ingestConfig() ingest.Config {
	return ingest.Config{
		SourceDir:   filepath.Join(a.data, "docs"),
		Limits:      a.limits(),
		ValidateCDA: a.validate,
		Logf:        a.logf,
	}
}

// loadCollection reads <data>/ontology.json and wraps it with the
// built-in LOINC fragment.
func (a *app) loadCollection() (*ontology.Collection, error) {
	f, err := os.Open(filepath.Join(a.data, "ontology.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ont, err := ontology.Load(f)
	if err != nil {
		return nil, err
	}
	return ontology.MustCollection(ont, ontology.LOINCFragment()), nil
}

// loadData produces one corpus snapshot: via the ingestion pipeline
// for -data, or synthetic generation for -generate (no report).
func (a *app) loadData(ctx context.Context) (*xmltree.Corpus, *ontology.Collection, *ingest.Report, error) {
	if a.generate {
		ont, err := ontology.Generate(ontology.GenConfig{
			Seed: a.seed, ExtraConcepts: a.concepts, SynonymProb: 0.4,
			MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		gen, err := cda.NewGenerator(cda.GenConfig{
			Seed: a.seed, NumDocuments: a.docs, ProblemsPerPatient: 4,
			MedicationsPerPatient: 4, ProceduresPerPatient: 2,
		}, ont)
		if err != nil {
			return nil, nil, nil, err
		}
		corpus := gen.GenerateCorpus()
		fig1, err := cda.GenerateFigure1(ont)
		if err != nil {
			return nil, nil, nil, err
		}
		corpus.Add(fig1)
		return corpus, ontology.MustCollection(ont, ontology.LOINCFragment()), nil, nil
	}
	coll, err := a.loadCollection()
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := ingest.Run(ctx, a.ingestConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return res.Corpus, coll, res.Report, nil
}

// run ingests the corpus, serves it, and blocks until ctx is done or a
// shutdown signal arrives, reloading on SIGHUP. It returns nil on a
// clean drain.
func (a *app) run(ctx context.Context) error {
	if !a.generate && a.data == "" {
		return fmt.Errorf("either -data or -generate is required")
	}
	if err := a.validateFederation(); err != nil {
		return err
	}
	peerClients, err := a.peerClients()
	if err != nil {
		return err
	}
	defer func() {
		for _, pc := range peerClients {
			pc.Close()
		}
	}()
	start := time.Now()
	corpus, coll, report, err := a.loadData(ctx)
	if err != nil {
		return err
	}
	loaded := time.Now()
	stats := corpus.Stats()
	a.logf("serving %d documents (%d elements, %d code nodes) across %d ontologies on %s",
		stats.Documents, stats.Elements, stats.CodeNodes, coll.Len(), a.addr)
	if report != nil {
		a.logf("ingest: %s", report.Summary())
	}
	a.logf("serving layer: cache=%d entries ttl=%v max-concurrent=%d queue-wait=%v timeout=%v",
		a.scfg.CacheCapacity, a.scfg.CacheTTL, a.scfg.MaxConcurrent, a.scfg.QueueWait, a.scfg.Timeout)
	a.logf("resilience: breaker-threshold=%d breaker-cooldown=%v retry-max=%d",
		a.ccfg.Query.Breaker.Threshold, a.ccfg.Query.Breaker.Cooldown, a.ccfg.Query.Retry.MaxAttempts)

	h := server.NewServing(corpus, coll, a.ccfg, a.scfg)
	h.SetLogf(a.logf)
	h.SetLastIngest(report)
	arenaDir := ""
	if a.mmapIndex {
		if a.data == "" {
			return fmt.Errorf("-mmap-index requires -data (arena files need a durable directory)")
		}
		arenaDir = filepath.Join(a.data, "arena")
	}
	if a.shards > 1 || len(peerClients) > 0 {
		c := h.EnableSharding(shard.Config{
			Shards:       a.shards,
			Timeout:      a.shardTimeout,
			Quorum:       a.shardQuorum,
			Peers:        peerClients,
			ArenaDir:     arenaDir,
			ArenaRebuild: a.arenaRebuild,
		})
		a.logf("sharding: %s", c.Summary())
		if len(peerClients) > 0 {
			a.logf("federation: coordinator over %d peers, peer-timeout=%v hedge-after=%v",
				len(peerClients), a.peerTimeout, a.peerHedgeAfter)
		}
		if arenaDir != "" {
			a.logf("mmap-index: %d bytes of shard arenas mapped under %s", c.MappedArenaBytes(), arenaDir)
		}
	} else if arenaDir != "" {
		if err := h.EnableArena(server.ArenaConfig{Dir: arenaDir, Rebuild: a.arenaRebuild}); err != nil {
			return err
		}
		for _, st := range h.ArenaStatuses() {
			a.logf("mmap-index: %s mapped (%d keywords, %d bytes)", st.Path, st.Keywords, st.Bytes)
		}
	}
	if a.shardRole == "peer" {
		h.EnablePeerAPI()
		a.logf("federation: shard API mounted (%s %s %s); this node serves as a remote peer",
			peer.PathSearch, peer.PathStats, peer.PathFragment)
	}
	if a.debug {
		h.EnableDebug()
		a.logf("debug: /debug/pprof/ enabled")
	}
	if a.jsonLog {
		obs.SetDefault(obs.NewLogger(os.Stderr, slog.LevelInfo))
	}
	if a.data != "" {
		// Deep readiness: the data directory must stay reachable (it is
		// reread on reload; losing the mount means the instance should
		// leave rotation).
		dir := a.data
		h.AddReadyCheck("data-dir", func() error {
			_, err := os.Stat(dir)
			return err
		})
		h.SetReloader(func(ctx context.Context) (*server.ReloadData, error) {
			corpus, coll, report, err := a.loadData(ctx)
			if err != nil {
				return nil, err
			}
			return &server.ReloadData{Corpus: corpus, Collection: coll, Ingest: report}, nil
		})
	}
	if a.liveIngest {
		if a.data == "" {
			return fmt.Errorf("-live-ingest requires -data (the WAL and compaction need a durable directory)")
		}
		wal := a.walPath
		if wal == "" {
			wal = filepath.Join(a.data, "delta.wal")
		}
		if err := h.EnableDelta(server.DeltaConfig{
			WALPath:              wal,
			Ingest:               a.ingestConfig(),
			CompactInterval:      a.compactInterval,
			CompactMaxDocs:       a.compactMaxDocs,
			CompactMaxTombstones: a.compactMaxTombs,
		}); err != nil {
			return err
		}
		defer h.CloseDelta()
		a.logf("live ingest: wal=%s compact-interval=%v max-docs=%d max-tombstones=%d",
			wal, a.compactInterval, a.compactMaxDocs, a.compactMaxTombs)
	}
	srv := &http.Server{
		Handler:           logging(a.logf, h),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// WriteTimeout must cover the serving deadline plus response
		// encoding, or slow-but-admitted searches would be cut off
		// mid-body instead of answered.
		WriteTimeout: a.scfg.Timeout + 20*time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		return err
	}
	a.boundAddr = ln.Addr().String()

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	a.logf("ready in %v (ingest %v, index %v)", time.Since(start).Round(time.Millisecond),
		loaded.Sub(start).Round(time.Millisecond), time.Since(loaded).Round(time.Millisecond))
	a.readyOnce.Do(func() { close(a.ready) })

	for {
		select {
		case err := <-errc:
			return err
		case <-hup:
			a.logf("SIGHUP received, reloading")
			if status, err := h.Reload(context.Background()); err != nil {
				a.logf("reload failed, keeping current generation: %v", err)
			} else {
				a.logf("reload complete: generation %d, %d documents in %v",
					status.Generation, status.Documents, status.Took.Round(time.Millisecond))
			}
		case <-ctx.Done():
			stop()
			a.logf("signal received, draining for up to %v", a.shutdownGrace)
			sctx, cancel := context.WithTimeout(context.Background(), a.shutdownGrace)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				a.logf("shutdown: %v", err)
				_ = srv.Close()
			}
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				a.logf("serve: %v", err)
			}
			a.logf("bye")
			return nil
		}
	}
}

func logging(logf func(string, ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logf("%s %s %v", r.Method, r.URL.RequestURI(), time.Since(start))
	})
}
