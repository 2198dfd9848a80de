GO ?= go

.PHONY: all build test vet race faultcheck lint sanitize interproc harness-audit chaos compile transval synth check bench benchjson clean

# Pinned staticcheck release for the lint gate. The gate is unconditional:
# `go run` resolves the pinned version (from the local module cache when
# offline) and the target fails loudly when it cannot, rather than
# silently passing because a binary happened to be absent.
STATICCHECK_VERSION ?= 2025.1

all: build

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass.
test:
	$(GO) test ./...

# go vet plus a formatting gate: any tracked Go file gofmt would rewrite
# fails the target. Tracked files only, so the module cache a benchmark
# build leaves under .bench_build/ is never scanned.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Race-detector gate, scoped to the concurrency-bearing packages (the
# parallel campaign fleet, harness, VM, memory): the rest of the suite is
# single-threaded interpreter work that -race only makes slow. The
# parallel tests shrink their exec budgets under the race build tag.
race:
	$(GO) test -race -timeout 15m ./internal/fuzz/ ./internal/harness/ ./internal/vm/ ./internal/mem/

# The fault-injection / resilience suite on its own, verbose: every
# degradation edge (restore failure -> quarantine + rebuild; repeated
# failure -> forkserver fallback; sentinel divergence; checkpoint resume),
# then a fixed-time run of the checkpoint fuzz target: hostile blobs must
# be rejected with ErrBadCheckpoint, never panic (crashers are checked in
# under internal/fuzz/testdata/fuzz and replay in the plain suite).
faultcheck:
	$(GO) test -v ./internal/faultinject/
	$(GO) test -v -run 'Injected|Fault|Resilient|Restore|Watchdog|Sentinel|Checkpoint|Resume|Degrad|Hang|Stop' \
		./internal/harness/ ./internal/execmgr/ ./internal/fuzz/ .
	$(GO) test -run '^$$' -fuzz '^FuzzResume$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/fuzz/

# Static correctness gate: go vet, the restore-completeness lints over
# every registered target, and the pipeline test suites with the deep
# analysis verifier re-checking the module after every pass (verifyeach).
lint:
	$(GO) vet ./...
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run ./cmd/closurex-lint -q -target all
	$(GO) test -tags verifyeach ./internal/analysis/ ./internal/passes/ ./internal/core/

# Sanitizer gate: the seeded-defect detection and differential suites, the
# shadow-plane and elision-analysis unit tests, and the strict lint run
# with sanitizer instrumentation armed (CLX111-113 + per-function elision
# report over every registered target).
sanitize:
	$(GO) test -run 'Sanitiz|Shadow|Quarantine|Elision|Elide' . ./internal/mem/ ./internal/harness/ ./internal/passes/ ./internal/core/ ./internal/analysis/sanitize/
	$(GO) run ./cmd/closurex-lint -q -strict -target all -sanitize-report

# Restore-elision gate: the interprocedural analysis unit suites
# (call graph, mod/ref, lifetime, audit), the off-vs-on differential
# (bit-identical coverage/corpus/crashes on every target), the runtime
# audit suite (zero elision drift over hundreds of iterations), and the
# strict lint run with the per-function elision report.
interproc:
	$(GO) test ./internal/analysis/interproc/
	$(GO) test -run 'Interproc|Elision|Elide' ./internal/core/ ./internal/harness/ ./internal/vm/ ./internal/passes/
	$(GO) run ./cmd/closurex-lint -q -target all -interproc-report

# Harness-quality gate: the audit analysis suites (reachability, coverage
# geometry, input dataflow, auto-dictionary) plus the strict audited lint
# run over every registered target — any CLX119-121 finding (dead harness
# surface, degraded coverage geometry, dead dictionary token) fails the
# build. The score cards print so regressions are diagnosable from CI logs.
harness-audit:
	$(GO) test ./internal/analysis/harnessaudit/
	$(GO) test -run 'Dict|Catalog|PreferredProbe|CovMapCells|SeedMirrors' ./internal/fuzz/ ./internal/analysis/ ./internal/passes/ ./internal/core/
	$(GO) run ./cmd/closurex-lint -q -strict -target all -harness-report

# Chaos gate: the shard-supervision fault-injection matrix. Unit level,
# the chaos suite (shard kill -> restart/quarantine, restore corruption ->
# rebuild ladder, corpus delay/drop, hang escalation, torn checkpoint
# writes, elastic resume) runs plain and under -race; end to end, the
# closurex-bench chaos sweep injects each fault class into a real compiled
# target's parallel campaign and gates (all_pass) on completion + coverage
# superset + no goroutine leak.
chaos:
	$(GO) test -run 'Chaos|Supervis|Elastic|TornWrite|ResumeError|ForShard|HealthLog' \
		./internal/fuzz/ ./internal/faultinject/ ./internal/stats/
	$(GO) test -race -timeout 15m -run 'Chaos|Supervis|Elastic|TornWrite|ResumeError' ./internal/fuzz/
	$(GO) run ./cmd/closurex-bench -sweep chaos -execs 20000 -trials 1 -json BENCH_chaos.json

# Compiled-tier gate: the interp-vs-compiled differential suites — the
# VM-level matrix in internal/vm/compile (per-seed observables, timeout
# sites, repeat-exec identity) and the campaign-level matrix in
# internal/core (coverage/corpus/crash/hang identity across sanitize,
# interproc and injected-restore-fault modes, fixed-seed determinism) —
# run plain and then under -race, since the compiled program cache is
# shared across shard VMs.
compile:
	$(GO) test -count=1 ./internal/vm/compile/
	$(GO) test -count=1 -run 'Backend|Compiled' ./internal/core/ ./internal/fuzz/
	$(GO) test -race -timeout 15m -count=1 ./internal/vm/compile/

# Translation-validation gate: the transval checker suite (certificate
# obligations, seeded-defect detection, JSON stability) plain and under
# -race (the program cache shares certificates across goroutines), then
# the lint driver certifying every registered target's compiled program
# against the IR (CLX123-127 fail the build).
transval:
	$(GO) test -count=1 ./internal/analysis/transval/
	$(GO) test -race -timeout 15m -count=1 -run 'Transval|Certif' ./internal/analysis/transval/ ./internal/core/
	$(GO) run ./cmd/closurex-lint -q -target all -transval

# Harness-synthesis gate: the synth suite plain and under -race (the
# synthesized targets register into the shared registry and run real
# campaigns), then the all-targets synthesis report — a build or
# certification failure (CLX130) in any synthesized harness fails the
# gate; CLX128/129/131 are advisory and tolerated.
synth:
	$(GO) test -count=1 ./internal/analysis/synth/
	$(GO) test -race -timeout 15m -count=1 -run 'Synth' ./internal/analysis/synth/ ./internal/experiments/ ./internal/core/
	$(GO) run ./cmd/closurex-lint -q -target all -synth

check: vet test race faultcheck lint sanitize interproc harness-audit chaos compile transval synth benchjson

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifacts: the closurex-bench sweeps, one
# BENCH_<artifact>.json each, all in the one row schema (target, mechanism,
# backend, jobs, mode, best/median execs/s, edges, corpus, shard health).
# Each entry is sweep:artifact; BENCH_chaos.json comes from `make chaos`.
# A sweep whose gate fails (all_identical, edges_match, deterministic_off,
# clx130, strict_superset) writes its artifact and then fails the target.
BENCH_SWEEPS = parallel:parallel compile:compile sanitizer:sanitizer elision:interproc \
	dict:harness synth:synth

benchjson:
	@for s in $(BENCH_SWEEPS); do \
		echo "closurex-bench -sweep $${s%%:*} -> BENCH_$${s##*:}.json"; \
		$(GO) run ./cmd/closurex-bench -sweep $${s%%:*} -trials 3 -json BENCH_$${s##*:}.json || exit 1; \
	done

clean:
	$(GO) clean ./...
