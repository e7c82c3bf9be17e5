# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test test-list test-tmp check chaos bench bench-checker \
        bench-quick bench-canon bench-shard bench-disk disk-smoke tables \
        resume-smoke resilience-smoke chaos-soak-smoke fuzz-smoke \
        serve-smoke fuzz clean-snapshots clean

# Every smoke-script timeout below is overridable (SMOKE=...): slow or
# heavily shared machines can widen the walls without editing the gate.
RESUME_SMOKE_TIMEOUT ?= 120
RESILIENCE_SMOKE_TIMEOUT ?= 60
CHAOS_SOAK_TIMEOUT ?= 60
FUZZ_SMOKE_TIMEOUT ?= 60
SERVE_SMOKE_TIMEOUT ?= 60
DISK_SMOKE_TIMEOUT ?= 120

all: build

build:
	dune build @all

test:
	dune runtest

# One stage of `make check`: echo and run command $(2), then print the
# stage's wall time as it ends.
define stage
@t0=$$(date +%s%N); echo "$(2)"; $(2) && ms=$$(( ($$(date +%s%N) - t0) / 1000000 )) && printf 'make check: stage %s took %d.%03d s\n' '$(1)' $$((ms / 1000)) $$((ms % 1000))
endef

# The gate the repo must pass before a change lands. Wrapped in a hard
# timeout so a wedged test (the very thing the fault layer exists to
# catch) fails the gate instead of hanging it. Each stage prints its wall
# time as it ends.
CHECK_TIMEOUT ?= 600
check:
	$(call stage,test-list,$(MAKE) test-list)
	$(call stage,build+runtest,timeout $(CHECK_TIMEOUT) sh -c 'dune build @all && dune runtest')
	$(call stage,test-tmp,$(MAKE) test-tmp)
	$(call stage,bench-canon,$(MAKE) bench-canon)
	$(call stage,bench-shard,$(MAKE) bench-shard)
	$(call stage,resume-smoke,$(MAKE) resume-smoke)
	$(call stage,resilience-smoke,$(MAKE) resilience-smoke)
	$(call stage,chaos-soak-smoke,$(MAKE) chaos-soak-smoke)
	$(call stage,fuzz-smoke,$(MAKE) fuzz-smoke)
	$(call stage,serve-smoke,$(MAKE) serve-smoke)
	$(call stage,disk-smoke,$(MAKE) disk-smoke)

# Fails if any test/test_*.ml suite is not registered in test/main.ml —
# a new suite cannot silently ride along unexecuted.
test-list:
	scripts/test_list.sh

# Fails if a filtered run of the suite (`main.exe test NAME`, which exits
# from inside Alcotest) leaves anything in TMPDIR.
test-tmp: build
	scripts/test_tmp.sh _build/default/test/main.exe

# End-to-end snapshot/resume smoke: truncate + resume vs oracle,
# SIGTERM mid-exploration, and the exit-code contract (`check`: 0 clean /
# 1 violation / 3 truncated / 4 rejected snapshot; usage mistakes: 124).
resume-smoke: build
	timeout $(RESUME_SMOKE_TIMEOUT) scripts/resume_smoke.sh _build/default/bin/coordctl.exe

# Seeded infrastructure-fault campaign: worker kills, stalls, torn and
# bit-flipped snapshot writes, allocation failure, deadline stop — the
# faulted sweeps must reach the fault-free oracle's verdict and state
# counts and exit by the documented contract (0/1/3/4/6). The campaign
# prints its fault-plan seed; replay with RESILIENCE_SEED=N.
resilience-smoke: build
	timeout $(RESILIENCE_SMOKE_TIMEOUT) scripts/resilience_smoke.sh _build/default/bin/coordctl.exe

# Chaos soak: sweep the (parallel / disk-visited x fault plan) matrix
# through coordctl, requiring each cell to be bit-identical
# to its fault-free oracle or an honestly reported degradation (disk
# quota -> stop reason disk_full, checkpoint intact, resume exact).
# Every cell runs under its own timeout; the campaign prints its seed
# and replays with CHAOS_SEED=N.
chaos-soak-smoke: build
	timeout $(CHAOS_SOAK_TIMEOUT) scripts/chaos_soak.sh _build/default/bin/coordctl.exe

# Sub-30s fuzzing smoke: replay the committed regression corpus, run a
# 1000-instance differential sweep (seq/par explorers, property checkers,
# runtime probes, baseline twins must all agree), and require the broken
# even-m mutex to be caught, shrunk and replayable end to end.
fuzz-smoke: build
	timeout $(FUZZ_SMOKE_TIMEOUT) scripts/fuzz_smoke.sh _build/default/bin/coordctl.exe

# Job-queue service smoke, part of `make check`: start `coordctl serve`
# on a fresh spool, run a job mix including one preempted-and-resumed
# check (small quantum), require verdicts to agree with direct CLI
# invocations, require an identical re-submission to be answered from
# the verdict cache with zero fresh states, shut down cleanly, then run
# the gated example sweep.
serve-smoke: build
	timeout $(SERVE_SMOKE_TIMEOUT) scripts/serve_smoke.sh _build/default/bin/coordctl.exe

# Long-running fuzz campaign: every protocol family, generous budgets,
# shrunk witnesses dropped in _fuzz/ for triage. Deterministic by SEED.
FUZZ_SECONDS ?= 60
SEED ?= 1
fuzz: build
	mkdir -p _fuzz
	-dune exec -- coordctl fuzz mutex --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz
	-dune exec -- coordctl fuzz cmp-mutex --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz
	-dune exec -- coordctl fuzz consensus --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz
	-dune exec -- coordctl fuzz election --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz
	-dune exec -- coordctl fuzz renaming --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz
	-dune exec -- coordctl fuzz ccp --seconds $(FUZZ_SECONDS) \
	  --attempts 100000 --seed $(SEED) --shrink --corpus _fuzz

# Remove checkpoint files left behind by interrupted explorations.
clean-snapshots:
	find . -path ./_build -prune -o -name '*.snap' -print -exec rm -f {} +
	rm -rf _snapshots

# Fixed-seed chaos sweep: random crash injection over every protocol
# family plus the E19 crash-tolerance tables. Deterministic by seed.
chaos: build
	dune exec -- coordctl chaos consensus -n 3 --seed 42 --attempts 10
	dune exec -- coordctl chaos election -n 3 --seed 42 --attempts 10
	dune exec -- coordctl chaos renaming -n 3 --seed 42 --attempts 10
	dune exec -- coordctl chaos ccp -n 2 --seed 42 --attempts 10
	dune exec -- coordctl chaos mutex --seed 42 --crash-cs 1 --attempts 3
	dune exec -- coordctl tables -e E19

# Full benchmark run (experiment tables + bechamel micro-benchmarks).
bench:
	dune exec bench/main.exe

# Checker throughput sweep: reduced-vs-full and par-vs-seq workloads,
# appended as a timestamped run to BENCH_checker.json. Defaults to the
# host's recommended domain count; DOMAINS=N overrides, and the harness
# refuses N above the recommendation unless FORCE=1 (oversubscribed
# numbers would record meaningless slowdowns).
bench-checker:
	dune exec bench/check_throughput.exe -- $(DOMAINS) $(if $(FORCE),--force)

# Sub-30s smoke benchmark (1 rep, small workloads). Appends to
# BENCH_checker.json like the full sweep.
bench-quick:
	timeout 60 dune exec bench/check_throughput.exe -- --quick $(if $(FORCE),--force)

# The canon wall-clock gate, part of `make check`: the quick workloads at
# 3 reps (min-of-reps tames ms-scale noise on the small graphs), failing
# if any complete quotient run is slower than 0.9x its full exploration.
# Quotient-soundness and dedup-accounting cross-checks ride along, and
# the run is appended to BENCH_checker.json like any other.
bench-canon:
	timeout 60 dune exec bench/check_throughput.exe -- --quick --reps 3 \
	  --gate-canon 0.9 $(if $(FORCE),--force)

# The parallel-explorer wall-clock gate, part of `make check`: on hosts
# with 2+ domains the map-then-intern parallel explorer must be at least
# as fast as the sequential reference on the >10^5-state scaling
# workload; on a single-domain host the comparison is recorded as
# skipped and the gate passes vacuously.
bench-shard:
	timeout 300 dune exec bench/check_throughput.exe -- --quick --reps 3 \
	  --gate-shard 1.0 $(if $(FORCE),--force)

# External-memory run of the full unreduced Figure 1 mutex (amutex m=5,
# three lock-step processes, 8.4M states): the disk-backed visited set
# must complete it and land exactly on the state count predicted by the
# symmetry quotient's orbit mass. MEM_MB sets the spill watermark.
MEM_MB ?= 512
bench-disk:
	dune exec bench/check_throughput.exe -- --disk --mem-mb $(MEM_MB)

# Sub-60s external-memory smoke, part of `make check`: a graph explored
# under an address-space ulimit that the in-RAM explorer could not even
# start in comfortably; spill-and-probe stats must match the unlimited
# in-RAM run exactly, and snapshot/resume must compose with spilling.
disk-smoke: build
	timeout $(DISK_SMOKE_TIMEOUT) scripts/disk_smoke.sh _build/default/bin/coordctl.exe

tables:
	dune exec -- coordctl tables

clean:
	dune clean
