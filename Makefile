# Verification lanes for the XOntoRank reproduction.
#
#   make check       - tier-1 build+test plus vet/staticcheck, the
#                      race-detector lane, faults, and fuzz-smoke
#   make test        - tier-1: build everything, run every test
#   make race        - race-detector lane over the concurrent packages, plus
#                      the shared-stage differential and isolation tests,
#                      concurrent builds over one shared ontology side,
#                      the side's OntoScore memo under concurrent reads,
#                      the shard metrics test repeated 50 times, and the
#                      pinned dirty read (a write mid-build) and two
#                      readers coalesced on one dirty build 20 times each,
#                      eight racing first hits of one cached /search
#                      answer 20 times, and those hits, the /search wire
#                      format and the delta differentials 5 times under
#                      the poison tag (response buffers overwritten as
#                      they return to their pool)
#   make vet         - static checks (staticcheck too, when installed)
#   make faults      - fault-injection suite under -race (failpoint leak
#                      check is enforced by each package's TestMain)
#   make fuzz-smoke  - ~10s of coverage-guided fuzzing per target
#   make bench       - serving-layer benchmarks (cache hit/miss, parallel load)
#   make bench-smoke - short DIL-merge benchmark pass (deep served-like
#                      shape included) and one System.Query merge over
#                      the benchmark corpus, plus the merge
#                      differential suite against the reference merge
#                      (fuzz seeds run in -run mode), one generation
#                      build at 200/800/3200 documents, and the keyword
#                      build against its map-based reference plus one
#                      cold build, one /search cache hit through
#                      ServeHTTP at k=10 and k=100, the dense OntoScore kernel against its
#                      map-based reference plus one propagation per
#                      strategy, one delta rebase, one dirty read and
#                      one delta apply
#   make shard       - sharded-serving lane: vet + the scatter-gather
#                      suite under -race (equivalence, fault-injected
#                      slow/failed shards, concurrent reload races)
#   make federation  - peer-federation lane: vet + the HTTP transport
#                      suite under -race (loopback differential, chaos
#                      under every peer.rpc failpoint, hedging, CLI
#                      3-node end-to-end)
#   make topk        - top-k pruning lane: the block-max differential
#                      suite (equivalence, edge cases, unsafe decay,
#                      paging windows, escape hatches, window-sized
#                      heap) under -race, plus both merge fuzzers'
#                      decay-axis seed corpora replayed in -run mode
#   make arena       - memory-mapped serving lane: vet + the arena
#                      format/crash-soak suite, the mmap==heap
#                      differentials (core, server, shard), and the
#                      munmap-after-drain reload races under -race
#   make delta       - live-ingestion lane: vet + the WAL, crash-soak,
#                      base+delta differential and compaction suites,
#                      and the HTTP ingest surface, under -race
#   make obs         - observability lane: vet + race tests for internal/obs,
#                      and the API guard (retired entry points and parallel
#                      paths must not reappear in non-test code)
#   make api-guard   - the API guard alone
#   make trace-demo  - generate a small corpus and print one traced search
#                      (the span tree with per-stage durations)

GO ?= go

# Packages with failpoint-instrumented code or fault-injection tests.
FAULT_PKGS = ./internal/faultinject/... ./internal/resilience/... \
	./internal/ingest/... ./internal/server/... ./internal/shard/... \
	./internal/delta/... ./internal/peer/... ./internal/arena/...

# Native fuzz targets, as package:Target pairs (each gets FUZZ_TIME).
FUZZ_TARGETS = \
	./internal/xmltree:FuzzParseDewey \
	./internal/xmltree:FuzzTokenize \
	./internal/xmltree:FuzzParse \
	./internal/cda:FuzzExtract \
	./internal/ontology:FuzzLoad \
	./internal/dil:FuzzBorrowSegment \
	./internal/arena:FuzzArenaDecode \
	./internal/query:FuzzMergeEquivalence \
	./internal/query:FuzzTopKEquivalence
FUZZ_TIME ?= 10s

.PHONY: check test race vet faults fuzz-smoke bench bench-smoke \
	shard federation topk arena delta obs api-guard trace-demo

check: test vet race faults fuzz-smoke bench-smoke topk shard delta arena federation obs

test:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

race:
	$(GO) test -race ./internal/serving/... ./internal/query/... \
		./internal/ingest/... ./internal/gen/... ./internal/server/... ./internal/shard/... \
		./internal/delta/... ./internal/peer/... ./internal/arena/... \
		./cmd/xontoserve/...
	$(GO) test -race -count=1 -run 'SharedStage|SharedSide|SideMemo' ./internal/ontoscore ./internal/dil ./internal/core
	$(GO) test -race -count=50 -run '^TestShardMetrics$$' ./internal/shard
	$(GO) test -race -count=20 -run '^(TestDirtyReadPinnedToAcquiredState|TestDirtyReadCoalescedReaders)$$' ./internal/delta
	$(GO) test -race -count=20 -run '^TestSearchMemoConcurrentHits$$' ./internal/server
	$(GO) test -race -tags poison -count=5 -run '^(TestSearchMemoConcurrentHits|TestSearchWireFormat|TestDifferential.*)$$' ./internal/server ./internal/delta

faults:
	$(GO) vet $(FAULT_PKGS)
	$(GO) test -race -count=1 $(FAULT_PKGS)

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz $$pkg $$target ($(FUZZ_TIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) >/dev/null; \
	done

bench:
	$(GO) test -run xxx -bench 'Serving' -benchmem .

# Quick confidence pass over the fast merge: the differential suite
# against the reference merge (including the fuzz seed corpus, replayed
# deterministically in -run mode, and the engine's default path on the
# experiment corpora), the arena segment codec (round trip, cursor
# differential, rejections, fuzz seeds) and one short benchmark iteration of every merge
# shape, with the deep (served-like) shape and one System.Query over the
# 800-document benchmark corpus once more with allocations; then the
# XOnto-DIL keyword build against its map-based reference and one cold
# build at 800 documents; then one /search
# cache hit through ServeHTTP at k=10 and k=100, with its allocations;
# then the dense OntoScore kernel against its map-based reference and one propagation
# per strategy, and one delta rebase at 1/8/32 pending documents, one
# dirty read at 1/8/32 pending documents and one acked put at
# 0/32/128/255 pending documents.
bench-smoke:
	$(GO) test ./internal/query -run 'TestMerge|TestEngineMatchesReference|FuzzMergeEquivalence' -count=1
	$(GO) test ./internal/dil -run 'TestSegment|TestBorrowSegmentRejects|TestDecodeCompactRejects|FuzzBorrowSegment' -count=1
	$(GO) test . -run '^$$' -bench 'DILMerge' -benchtime 10x
	$(GO) test . -run '^$$' -bench 'DILMerge/keywords=3/deep' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench '^BenchmarkQueryMerge$$' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench 'NewGeneration' -benchtime 1x
	$(GO) test ./internal/dil -run 'TestAssembleMatchesReference|TestBuildMatchesReference' -count=1
	$(GO) test ./internal/dil -run '^$$' -bench 'BuildKeyword' -benchtime 1x -benchmem
	$(GO) test ./internal/server -run '^$$' -bench '^BenchmarkSearchHit$$' -benchtime 1x -benchmem
	$(GO) test ./internal/ontoscore -run 'TestDenseMatchesReference' -count=1
	$(GO) test ./internal/ontoscore -run '^$$' -bench '^BenchmarkCompute$$' -benchtime 1x -benchmem
	$(GO) test ./internal/delta -run '^$$' -bench '^(BenchmarkRebase|BenchmarkDirtyRead|BenchmarkApply)$$' -benchtime 1x -benchmem

# The top-k pruning lane: the block-max merge's differential suite
# against the exhaustive reference (equivalence over fuzzed shapes,
# edge cases, unsafe decay, engine paging windows, the exhaustive-merge
# escape hatch, the heap not sized to the paging window), the sharded
# paging equivalence, and both merge fuzzers' seed corpora (every decay
# of the differential's decay axis) replayed deterministically — all
# under the race detector.
topk:
	$(GO) test -race -count=1 ./internal/query -run 'TestTopK|TestEngineExhaustiveMergeParam|TestEnginePagingWindows|TestEngineMatchesReference|FuzzTopKEquivalence|FuzzMergeEquivalence'
	$(GO) test -race -count=1 ./internal/shard -run 'TestShardedPagingEquivalence'

# The sharded-serving lane: scatter-gather equivalence against the
# single-node systems, fault-injected slow/failed/breaker-open shards,
# and the rolling-reload races — all under the race detector (the
# pin/swap/release generation lifecycle is the point).
shard:
	$(GO) vet ./internal/shard/...
	$(GO) test -race -count=1 ./internal/shard/...
	$(GO) test -race -count=1 ./internal/server -run 'TestSharded|TestDegradeWarning|TestReadyzShardQuorum'

# The peer-federation lane: the HTTP shard transport end to end — the
# wire protocol and torn/truncated-body handling, hedged requests with
# per-peer breakers, the loopback differential (federated answers
# byte-identical to single-node), chaos under every peer.rpc failpoint,
# and the CLI's 3-node end-to-end — all under the race detector.
federation:
	$(GO) vet ./internal/peer/...
	$(GO) test -race -count=1 ./internal/peer/...
	$(GO) test -race -count=1 ./internal/shard -run 'TestFederated'
	$(GO) test -race -count=1 ./internal/server -run \
		'TestFederated|TestSearchClientCancelCancelsFanout|TestQueryBodyCap'
	$(GO) test -race -count=1 ./internal/resilience -run TestHalfOpenSingleProbeUnderConcurrency
	$(GO) test -race -count=1 ./cmd/xontoserve -run 'TestFederation'

# The live-ingestion lane: WAL framing and torn-tail recovery,
# kill-at-every-fsync crash soaks, the base+delta vs full-rebuild
# differential across all four strategies, the compaction state
# machine under injected faults, and the HTTP surface (ingest
# lifecycle, admin gate conflicts, WAL recovery, compaction fold,
# sharded differential) — all under the race detector.
delta:
	$(GO) vet ./internal/delta/...
	$(GO) test -race -count=1 ./internal/delta/...
	$(GO) test -race -count=1 ./internal/server -run \
		'TestLiveIngest|TestIngestValidation|TestAdminGate|TestDeltaWAL|TestCompaction|TestShardedDelta|TestReloadWithPendingWAL'

# The memory-mapped serving lane: the single-file format end to end
# (round-trip, corruption and truncate-at-every-byte crash soaks,
# stray-temp cleanup, load/mmap failpoints), the borrowed-bytes
# cursor differential in internal/dil, and the mmap==heap byte-
# identical differentials at every layer — core (all strategies,
# paging windows), server (HTTP path, cold attach, delta overlay),
# shard (1/2/4-way, rolling reload) — with the generation-pinned
# munmap-after-drain races under the race detector.
arena:
	$(GO) vet ./internal/arena/...
	$(GO) test -race -count=1 ./internal/arena/...
	$(GO) test -race -count=1 ./internal/dil -run 'TestSegment|TestBorrowed'
	$(GO) test -race -count=1 ./internal/core -run 'TestArena'
	$(GO) test -race -count=1 ./internal/server -run 'TestArena|TestEnableArena'
	$(GO) test -race -count=1 ./internal/shard -run 'TestShardedArena|TestFederatedArena'

obs: api-guard
	$(GO) vet ./internal/obs/...
	$(GO) test -race ./internal/obs/...

# Retired entry points and parallel paths must not grow back in
# non-test code: the Search* variants on the System facade and on
# query.Engine (Query is the single entry point of both), AddDocument
# on System and dil.Builder (the full-text stage is immutable; live
# writes go through internal/delta), the legacy-merge selectors and the
# merge environment variables, RunHybrid, and the docstore and
# graphsearch packages. The generation lifecycle lives only in
# internal/gen: no second refcount (pin/acquire/CAS) on a serving
# snapshot, and no second arena open→check→rebuild path.
# (internal/arena's own mapping refcount is a separate lifecycle.)
# OntoScore computers are built in one place, ontoscore.NewSide, once
# per ontology collection, and traverse only the frozen snapshot: no
# NewComputer call elsewhere, no Computer.Frozen, no Graph interface
# the map-backed ontology could satisfy. The expansion is the dense
# kernel (no map-based func expand outside tests), and index creation
# reads OntoScores through the side's memo (no Compute/ComputeCtx call
# in internal/dil outside tests). Server responses are compact
# JSON (no indenting encoder in internal/server), and the discard logger
# is disabled rather than formatting into io.Discard. The DIL merge is
# one sparse-stack path fed by document runs: no per-posting loser tree
# (fastEntry, mergeRun.build/adjust/less) grows back beside it, and no
# top-k heap is preallocated to the whole k+offset window. A dirty read
# is one build pinned to the state the query acquired: no Combine step
# splices the delta into a second copy of the base list, no statistics
# view or calibrator on a base builder follows the live state, and the
# keyword build emits from the dense Dewey table in one pass (no node
# pointer table, no counting pass). Concept references are one CSR
# table (no slice per concept slot), and element lengths one dense
# array (no map keyed by element). A /search body is spliced around
# bytes encoding/json wrote once: no json.RawMessage in internal/server,
# whose Marshal would re-scan them on every request. The XARN1 arena is
# the one on-disk index format and its segment the one posting-list
# codec: no internal/store, no SaveIndex/LoadIndex/LoadFrom or store
# source, no DecodeList/DecodeCompact stream codec. A built list is one
# representation, keyed postings a table resolves: no plain-list cursor
# (NewListCursor), no Dewey sort on a list, no compact-only merge entry
# point or block-score accessors, no heap list cache beside an arena,
# and no uncalled size accessors (MemBytes, Cursor.Len). Once built, a
# list is block-coded (key deltas, a score dictionary per block) in the
# keyword cache, the index and the arena alike: no front-coded Dewey
# arrays (prefixLens, suffixLens, borrowedHeader), no built-list cursor
# mode with its suffix-max array (haveSuf), and no pinned-list pool or
# the ownership plumbing it needed (listPool, dil.Recycle, DoOwned).
# The keyword build reads a frozen ontology side and cannot fail: no
# ontology failpoint (FPOntoResolve), fallible build (BuildKeywordE),
# retry/breaker wrapper (listResilient) or IR-only fallback cache
# namespace (irCacheKey) grows back around it. ElemRank is out of the
# serving stack: no builder normalizer (SetRanksMax), no ranks_max on
# the peer wire, no internal/elemrank package, and nothing xontoserve
# links may import one. Serving has one top-k path, and the merge runs
# on element keys: no RDIL (RunRanked) or Ranked option in core, query,
# shard, peer, dil or the xontorank CLI, no Dewey-form posting
# (dil.Entry, the Entries decoders, Cursor.Cur) and no Dewey compare of
# run heads (docLess).
# Benchmarks are
# plain go test -bench runs and bench/'s xontoload: no root BENCH_*.json
# or *_report_test.go JSON writer.
api-guard:
	@fail=0; \
	if grep -nE 'func \(s \*System\) (Search|SearchContext|SearchKeywords|SearchKeywordsContext|SearchKeywordsInfo|SearchTopK|AddDocument)\(' \
		--exclude='*_test.go' internal/core/*.go xontorank.go; then fail=1; fi; \
	if grep -nE 'func \(e \*Engine\) Search(Context|Info|Query|Ranked|RankedContext|RankedInfo)?\(' \
		--exclude='*_test.go' internal/query/*.go; then fail=1; fi; \
	if grep -nE 'func \(b \*Builder\) AddDocument\(' --exclude='*_test.go' internal/dil/*.go; then fail=1; fi; \
	if grep -rnE 'LegacyMerge|XONTORANK_MERGE|XONTORANK_TOPK|RunListsLegacy|RunHybrid' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if grep -rnE 'func \(g \*generation\) acquire|func \(g \*shardGen\) acquire|func \(sl \*slot\) pin|refs\.CompareAndSwap' \
		--include='*.go' --exclude='*_test.go' --exclude-dir=gen --exclude-dir=arena internal; then fail=1; fi; \
	if grep -rnE 'func (\([^)]*\) )?openCompatibleArena\(' --include='*.go' . | grep -v '^./internal/gen/gen.go:'; then fail=1; fi; \
	if grep -rnE 'ontoscore\.NewComputer\(' --include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if grep -nE 'NewComputer\(' --exclude='*_test.go' internal/ontoscore/*.go | grep -vE '^internal/ontoscore/side\.go:|func NewComputer\('; then fail=1; fi; \
	if grep -rnE 'func \(c \*Computer\) Frozen\(|Graph interface|\(\*ontology\.Ontology\)\(nil\)' \
		--include='*.go' --exclude='*_test.go' internal/ontoscore; then fail=1; fi; \
	if grep -nE '^func expand\(' --exclude='*_test.go' internal/ontoscore/*.go; then fail=1; fi; \
	if grep -nE '\.(Compute|ComputeCtx)\(' --exclude='*_test.go' internal/dil/*.go; then fail=1; fi; \
	if grep -nE 'SetIndent\(|MarshalIndent\(' --exclude='*_test.go' internal/server/*.go; then fail=1; fi; \
	if grep -nF 'json.RawMessage' --exclude='*_test.go' internal/server/*.go; then fail=1; fi; \
	if grep -nF 'slog.NewJSONHandler(io.Discard' --exclude='*_test.go' internal/obs/*.go; then fail=1; fi; \
	if grep -nE 'type fastEntry|func \(m \*mergeRun\) (build|adjust|less)\(' --exclude='*_test.go' internal/query/*.go; then fail=1; fi; \
	if grep -nF 'make(topKHeap, 0, limit+1)' --exclude='*_test.go' internal/query/*.go; then fail=1; fi; \
	if grep -nF 'Combine(' --exclude='*_test.go' internal/query/*.go internal/delta/*.go; then fail=1; fi; \
	if grep -nE 'type (liveStatsView|liveCalibrator)' --exclude='*_test.go' internal/delta/*.go; then fail=1; fi; \
	if grep -nE 'nodes  *\[\]\*xmltree\.Node|b\.nodes\[' --exclude='*_test.go' internal/dil/*.go; then fail=1; fi; \
	if grep -nF 'merge(text, sc, false' --exclude='*_test.go' internal/dil/*.go; then fail=1; fi; \
	if grep -nE 'refs  *\[\]\[\]ir\.DocKey' --exclude='*_test.go' internal/dil/*.go; then fail=1; fi; \
	if grep -nE 'docLen  *map\[' --exclude='*_test.go' internal/ir/*.go; then fail=1; fi; \
	if grep -rnE 'SaveIndex\(|LoadIndex\(|LoadFrom|NewStoreSource|DecodeList\(|DecodeCompact\(' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if grep -rnE 'NewListCursor|RunCompactLists|BlockMaxScore|TailMaxScore|ArenaSourceCacheSize|func \(l List\) (Sort|IsSorted)\(|func \(c \*CompactList\) MemBytes\(|func \(cu \*Cursor\) Len\(' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if grep -rnE 'prefixLens|suffixLens|borrowedHeader|haveSuf|listPool|DoOwned|dil\.Recycle|func Recycle\(' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if grep -rnE 'FPOntoResolve|irCacheKey|listResilient|BuildKeywordE\b|SetRanksMax|ranks_max' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if $(GO) list -deps ./cmd/xontoserve | grep -x 'repro/internal/elemrank'; then fail=1; fi; \
	if grep -rnE 'dil\.Entry\b|RunRanked|\bRanked\b|docLess|func \((c \*CompactList|t IDs)\) Entries\(|func \(cu \*Cursor\) Cur\(' \
		--include='*.go' --exclude='*_test.go' internal/core internal/query internal/shard internal/peer internal/dil cmd/xontorank; then fail=1; fi; \
	if grep -rnE 'ir\.Posting\b|NewPositional|NormalizedBM25|TFIDF|Pivoted|DocsContainingAll|SetGlobalTextStatsView|GlobalStatsView' \
		--include='*.go' --exclude='*_test.go' .; then fail=1; fi; \
	if [ -e internal/ir/pivoted.go ]; then echo "internal/ir/pivoted.go exists"; fail=1; fi; \
	for d in internal/docstore internal/graphsearch internal/store internal/elemrank; do \
		if [ -e $$d ]; then echo "$$d exists"; fail=1; fi; \
	done; \
	for f in BENCH_*.json *_report_test.go; do \
		if [ -e "$$f" ]; then echo "$$f exists"; fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "api-guard: a retired entry point or parallel path reappeared (use Query; writes go through internal/delta; generations use internal/gen; computers come from ontoscore.NewSide; builders read OntoScores through Side.Scores; responses are compact and spliced without json.RawMessage; the discard logger is disabled; the merge has one sparse-stack path and a heap that grows on demand; dirty reads build pinned, in one pass over a dense Dewey table; concept references and element lengths are dense tables; the arena is the one on-disk index format; built lists are keyed postings only, block-coded once built, with no list pool; the keyword build has no failure path and no ElemRank; serving has no RDIL and merges on keys; the full-text index is one positional ir.Index with BM25 its only scorer and one statistics setter; benchmarks write no root reports)"; \
		exit 1; \
	fi
	@echo "api-guard: ok"

trace-demo:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) run ./cmd/xontorank gen -out $$tmp -docs 20 -concepts 300 -seed 1 >/dev/null; \
	$(GO) run ./cmd/xontorank search -data $$tmp -q "asthma medications" -k 3 -trace
