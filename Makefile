# Verification lanes for the XOntoRank reproduction.
#
#   make check       - tier-1 build+test plus vet/staticcheck, the
#                      race-detector lane, faults, and fuzz-smoke
#   make test        - tier-1: build everything, run every test
#   make race        - race-detector lane over the concurrent packages, plus
#                      the shared-stage differential and isolation tests
#   make vet         - static checks (staticcheck too, when installed)
#   make faults      - fault-injection suite under -race (failpoint leak
#                      check is enforced by each package's TestMain)
#   make fuzz-smoke  - ~10s of coverage-guided fuzzing per target
#   make bench       - serving-layer benchmarks (cache hit/miss, parallel load)
#   make bench-smoke - short DIL-merge benchmark pass plus the merge
#                      differential suite against the reference merge
#                      (fuzz seeds run in -run mode), and one generation
#                      build at 200/800/3200 documents
#   make shard       - sharded-serving lane: vet + the scatter-gather
#                      suite under -race (equivalence, fault-injected
#                      slow/failed shards, concurrent reload races)
#   make bench-shard-report - regenerate BENCH_SHARD.json (shard count
#                      vs p50/p99 latency under parallel load)
#   make federation  - peer-federation lane: vet + the HTTP transport
#                      suite under -race (loopback differential, chaos
#                      under every peer.rpc failpoint, hedging, CLI
#                      3-node end-to-end)
#   make bench-peer-report - regenerate BENCH_PEER.json (federated
#                      p50/p99 with and without hedging under an
#                      injected slow-peer tail)
#   make topk        - top-k pruning lane: the block-max differential
#                      suite (equivalence, edge cases, unsafe decay,
#                      paging windows, escape hatches) under -race, plus
#                      the fuzz seed corpus replayed in -run mode
#   make bench-topk-report - regenerate BENCH_TOPK.json (block-max top-k
#                      vs exhaustive merge at k in {1,10,100}; enforces
#                      the >=5x bar on uniform conjunctions at k=10)
#   make arena       - memory-mapped serving lane: vet + the arena
#                      format/crash-soak suite, the mmap==heap
#                      differentials (core, server, shard), and the
#                      munmap-after-drain reload races under -race
#   make bench-arena-report - regenerate BENCH_ARENA.json (cold start
#                      mmap vs decode-to-heap at three corpus sizes,
#                      plus steady-state query latency parity)
#   make obs         - observability lane: vet + race tests for internal/obs,
#                      and the API guard (retired entry points and parallel
#                      paths must not reappear in non-test code)
#   make trace-demo  - generate a small corpus and print one traced search
#                      (the span tree with per-stage durations)

GO ?= go

# Packages with failpoint-instrumented code or fault-injection tests.
FAULT_PKGS = ./internal/faultinject/... ./internal/resilience/... \
	./internal/store/... ./internal/dil/... ./internal/query/... \
	./internal/ingest/... ./internal/server/... ./internal/shard/... \
	./internal/delta/... ./internal/peer/... ./internal/arena/...

# Native fuzz targets, as package:Target pairs (each gets FUZZ_TIME).
FUZZ_TARGETS = \
	./internal/xmltree:FuzzParseDewey \
	./internal/xmltree:FuzzDecodeDewey \
	./internal/xmltree:FuzzTokenize \
	./internal/xmltree:FuzzParse \
	./internal/cda:FuzzExtract \
	./internal/ontology:FuzzLoad \
	./internal/dil:FuzzDecodeCompact \
	./internal/arena:FuzzArenaDecode \
	./internal/query:FuzzMergeEquivalence \
	./internal/query:FuzzTopKEquivalence
FUZZ_TIME ?= 10s

.PHONY: check test race vet faults fuzz-smoke bench bench-smoke \
	shard bench-shard-report federation \
	bench-peer-report topk bench-topk-report arena bench-arena-report \
	obs api-guard trace-demo

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
	$(GO) test -race -count=1 -run 'SharedStage' ./internal/dil ./internal/core

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
# experiment corpora) and one short benchmark iteration of every merge
# shape.
bench-smoke:
	$(GO) test ./internal/query -run 'TestMerge|TestEngineMatchesReference|FuzzMergeEquivalence' -count=1
	$(GO) test ./internal/dil -run 'TestCompact|TestCursor|TestDecodeCompact|FuzzDecodeCompact' -count=1
	$(GO) test . -run '^$$' -bench 'DILMerge' -benchtime 10x
	$(GO) test . -run '^$$' -bench 'NewGeneration' -benchtime 1x

# The top-k pruning lane: the block-max merge's differential suite
# against the exhaustive reference (equivalence over fuzzed shapes,
# edge cases, unsafe decay, engine paging windows, the exhaustive-merge
# escape hatch), the sharded paging equivalence, and the fuzz seed
# corpus replayed deterministically — all under the race detector.
topk:
	$(GO) test -race -count=1 ./internal/query -run 'TestTopK|TestEngineExhaustiveMergeParam|TestEnginePagingWindows|TestEngineMatchesReference|FuzzTopKEquivalence'
	$(GO) test -race -count=1 ./internal/shard -run 'TestShardedPagingEquivalence'

bench-topk-report:
	BENCH_TOPK=1 $(GO) test . -run TestWriteTopKBenchReport -count=1 -v

# The sharded-serving lane: scatter-gather equivalence against the
# single-node systems, fault-injected slow/failed/breaker-open shards,
# and the rolling-reload races — all under the race detector (the
# pin/swap/release generation lifecycle is the point).
shard:
	$(GO) vet ./internal/shard/...
	$(GO) test -race -count=1 ./internal/shard/...
	$(GO) test -race -count=1 ./internal/server -run 'TestSharded|TestDegradeWarning|TestReadyzShardQuorum'

bench-shard-report:
	BENCH_SHARD=1 $(GO) test . -run TestWriteShardBenchReport -count=1 -v

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

bench-peer-report:
	BENCH_PEER=1 $(GO) test . -run TestWriteBenchPeerReport -count=1 -v

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

bench-delta-report:
	BENCH_DELTA=1 $(GO) test . -run TestWriteDeltaBenchReport -count=1 -v

# The memory-mapped serving lane: the single-file format end to end
# (round-trip, corruption and truncate-at-every-byte crash soaks,
# stray-temp cleanup, load/mmap failpoints), the borrowed-bytes
# cursor differential in internal/dil, and the mmap==heap byte-
# identical differentials at every layer — core (all strategies,
# DIL and RDIL), server (HTTP path, cold attach, delta overlay),
# shard (1/2/4-way, rolling reload) — with the generation-pinned
# munmap-after-drain races under the race detector.
arena:
	$(GO) vet ./internal/arena/...
	$(GO) test -race -count=1 ./internal/arena/...
	$(GO) test -race -count=1 ./internal/dil -run 'TestSegment|TestBorrowed'
	$(GO) test -race -count=1 ./internal/core -run 'TestArena'
	$(GO) test -race -count=1 ./internal/server -run 'TestArena|TestEnableArena'
	$(GO) test -race -count=1 ./internal/shard -run 'TestShardedArena|TestFederatedArena'

bench-arena-report:
	BENCH_ARENA=1 $(GO) test . -run TestWriteArenaBenchReport -count=1 -v

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
	for d in internal/docstore internal/graphsearch; do \
		if [ -e $$d ]; then echo "$$d exists"; fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "api-guard: a retired entry point or parallel path reappeared (use Query; writes go through internal/delta; generations use internal/gen)"; \
		exit 1; \
	fi
	@echo "api-guard: ok"

trace-demo:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) run ./cmd/xontorank gen -out $$tmp -docs 20 -concepts 300 -seed 1 >/dev/null; \
	$(GO) run ./cmd/xontorank search -data $$tmp -q "asthma medications" -k 3 -trace
