GO ?= go

.PHONY: build test check fmt vet race inline-check bench bench-json benchdiff pairs tables cover smoke fuzz-short run-report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/core/... ./internal/obs/... ./internal/checkpoint/... ./internal/storage/... ./internal/bench/... ./internal/serve/... ./internal/algo/integration/...

# inline-check asserts that the compiler inlines Apply, and the bitmap's
# set that marks what it changed, into the bulk route of every shipped
# program with an ApplyAll or ApplyEach delegate,
# core.UpdateRun and its Update closure into the UpdateRun run delegate,
# Decode and Apply into its ApplyRecords drain delegate — every delegate
# the programs' source defines — the field codecs into the pair codecs'
# EncodeAll/DecodeAll loops, the bitmap's nextSet/clear/set into the
# Worker loop and nextSet into the planner's walks, and partitionOf into scatter, the record writer every
# partitioned run's messages go through; and, from a -gcflags=-d=wb build,
# that scatter has no GC write barrier outside its flush branch, so a
# record stores its buffer's length, not the slice (ci/inlinecheck.sh) —
# run it after any edit to a program, to core.ApplyAll, core.ApplyEach,
# core.UpdateRun or core.ApplyRecords, to internal/graph/pair.go, to
# updateRuns, to the Frontier (activeset.go), to scatter or to partitionOf.
inline-check:
	ci/inlinecheck.sh

bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkSendAll|BenchmarkSendEach' -benchmem -run '^$$' ./internal/core/

# bench-json records the engine, codec and preprocessing benchmarks as a
# JSON snapshot for the CI regression gate; benchdiff compares it to the
# committed baseline, whose engine and preprocessing rows gate allocs/op
# only (nanoseconds on a shared box gate nothing: ROADMAP item 6(a)).
bench-json:
	{ $(GO) test -bench 'BenchmarkEngine|BenchmarkSendAll|BenchmarkSendEach' -benchmem -run '^$$' ./internal/core/ ; \
	  $(GO) test -bench BenchmarkCodec -benchmem -run '^$$' ./internal/storage/ ; \
	  $(GO) test -bench BenchmarkSort -benchmem -run '^$$' ./internal/extsort/ ; \
	  $(GO) test -bench BenchmarkConvert -benchmem -run '^$$' ./internal/dos/ ; } \
		| $(GO) run ./cmd/graphz-benchdiff -record -out BENCH_core.json

benchdiff: bench-json
	$(GO) run ./cmd/graphz-benchdiff -baseline ci/bench-baseline.json -current BENCH_core.json -threshold 0.15

# pairs measures a performance claim the way ROADMAP.md requires: PAIRS
# alternating runs of repo-benchmark workload W (one, a comma-separated
# list, or `all`) at git ref BASE and on the working tree, with medians,
# quartiles, wins and the exact IO counts per workload (ci/pairs.sh).
# RECORD=BENCH_e2e.json also appends one row per workload to the committed
# trajectory. LAYOUT=N builds both sides with -ldflags=-randlayout=N.
# Examples: make pairs BASE=HEAD~1 W=stream-pr
#           make pairs BASE=HEAD~1 W=all RECORD=BENCH_e2e.json LAYOUT=3
PAIRS ?= 10
SEED ?= 1
pairs:
	ci/pairs.sh $(if $(RECORD),--record $(RECORD)) $(if $(LAYOUT),--layout $(LAYOUT)) $(BASE) $(W) $(PAIRS) $(SEED)

# tables checks that a change leaves the modeled tables byte-identical:
# graphz-bench -experiments EXPERIMENTS (default: every experiment this
# box's memory runs) at git ref BASE and on the working tree, diffed
# without the wall-clock lines (ci/tables.sh). ~20 min a side.
# Example: make tables BASE=HEAD~1 [EXPERIMENTS=t11,t12]
tables:
	ci/tables.sh $(BASE) $(EXPERIMENTS)

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# smoke runs the crash-recovery test and both oracles' seed corpora
# (FuzzEngineOracle: every algorithm at every drawn configuration against
# the in-memory references, engines killed at drawn device operations
# resuming to byte-identical results; FuzzEngineSeams: the ledger, planner,
# prefetcher and drain of internal/core, one process a draw killed and
# resumed, and the six planted-bug seeds), a
# run-report round trip (a profiled run writes its artifact, and
# graphz-report must render and self-diff it cleanly), the semi-external
# differential at the exec level (the same generated graph — 1.6 MB of
# vertex states, 2.4 MB of adjacency entries — run under a budget that fits
# both and one that fits neither must report semi-external with a resident
# adjacency and partitioned with a streamed one respectively, both
# scheduled selectively (CC is frontier-safe) — the tight run skipping
# blocks, the one end-to-end run of a sparse schedule over a streamed
# adjacency — and print byte-identical
# results, CC being partition-independent, and the fitting run's report
# must render), and the graphz-serve end-to-end session:
# boot on a free port, submit BFS and PageRank jobs, poll to completion,
# fetch results and reports, cancel, and drain on SIGINT.
SMOKE_RUN = $(GO) run ./cmd/graphz-run -gen er -gen-vertices 200000 -gen-edges 600000 -seed 9 -algo cc -top 20
SMOKE_KEEP = sed -n -e '/^sem:/p' -e '/^adjacency:/p' -e '/^selective:/p' -e '/top 20 vertices/,$$p'
smoke:
	$(GO) test -run 'TestCrashRecovery|FuzzEngineOracle|FuzzEngineSeams' -count=1 -v ./internal/core/ ./internal/algo/integration/
	$(GO) run ./cmd/graphz-run -gen rmat -gen-scale 8 -gen-edges 2000 -seed 7 -algo cc -report RUNREPORT_smoke.json
	$(GO) run ./cmd/graphz-report show RUNREPORT_smoke.json
	$(GO) run ./cmd/graphz-report diff RUNREPORT_smoke.json RUNREPORT_smoke.json
	$(SMOKE_RUN) -budget 8388608 -report RUNREPORT_sem.json | $(SMOKE_KEEP) > SMOKE_fit.txt
	$(SMOKE_RUN) -budget 2621440 | $(SMOKE_KEEP) > SMOKE_tight.txt
	grep '^sem: semi-external' SMOKE_fit.txt
	grep '^sem: partitioned' SMOKE_tight.txt
	grep '^adjacency: resident' SMOKE_fit.txt
	grep '^adjacency: streamed' SMOKE_tight.txt
	grep '^selective: ' SMOKE_fit.txt
	grep -E '^selective: [0-9]+ blocks scanned, [1-9][0-9]* skipped' SMOKE_tight.txt
	diff -I '^sem:' -I '^adjacency:' -I '^selective:' SMOKE_fit.txt SMOKE_tight.txt && rm -f SMOKE_fit.txt SMOKE_tight.txt
	$(GO) run ./cmd/graphz-report show RUNREPORT_sem.json
	$(GO) test -run 'TestServe' -count=1 -v ./cmd/graphz-serve/

# run-report emits the reference profiled run's artifact (stage totals,
# memory timeline, block heatmap) for the CI bench job to upload next to
# the benchmark snapshot. Inspect with `graphz-report show`, compare two
# revisions with `graphz-report diff`.
run-report:
	$(GO) run ./cmd/graphz-run -gen rmat -gen-scale 10 -gen-edges 8192 -seed 7 -algo pr -report RUNREPORT_run.json
	$(GO) run ./cmd/graphz-report show RUNREPORT_run.json

# fuzz-short gives each DOS parser and codec fuzz target and the two engine
# oracles a bounded budget — 10s locally, FUZZTIME=30s in the CI fuzz job
# (which also caches the generated corpus across runs). The checked-in seed
# corpora under internal/dos/testdata, internal/storage/testdata,
# internal/core/testdata and internal/algo/integration/testdata (and the
# oracles' f.Add seeds) replay on every plain `go test` run regardless.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzMetaParse$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzEdgesDecode$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupVarintDecode$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupVarintRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOracle$$' -fuzztime $(FUZZTIME) ./internal/algo/integration/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSeams$$' -fuzztime $(FUZZTIME) ./internal/core/

check: fmt vet inline-check race test
