CI_TRACE := /tmp/apex-ci-trace.json
CI_ANALYZE := /tmp/apex-ci-analyze.json
CI_ANALYZE_COLD := /tmp/apex-ci-analyze-cold.json
CI_ANALYZE_WARM := /tmp/apex-ci-analyze-warm.json
CI_ANALYZE_CACHE := /tmp/apex-ci-analyze-cache
CI_CONFIGS := /tmp/apex-ci-configs.json
CI_J1 := /tmp/apex-ci-jobs1.json
CI_J4 := /tmp/apex-ci-jobs4.json
CI_DSE_J1 := /tmp/apex-ci-dse-jobs1.json
CI_DSE_J2 := /tmp/apex-ci-dse-jobs2.json
CI_PE1_J1 := /tmp/apex-ci-pe1-jobs1.json
CI_PE1_J2 := /tmp/apex-ci-pe1-jobs2.json
CI_COLD := /tmp/apex-ci-cold.json
CI_WARM := /tmp/apex-ci-warm.json
CI_CACHE := /tmp/apex-ci-cache
CI_DSE_BASE := /tmp/apex-ci-dse-base.json
CI_DSE_FAULT := /tmp/apex-ci-dse-fault.json
CI_FAULT_CACHE := /tmp/apex-ci-fault-cache
CI_HARRIS_BASE := /tmp/apex-ci-harris-base.json
CI_HARRIS_PLAIN := /tmp/apex-ci-harris-plain.json
CI_CAMERA_OPT_BASE := /tmp/apex-ci-camera-opt-base.json
CI_CAMERA_OPT_PLAIN := /tmp/apex-ci-camera-opt-plain.json
CI_SNAP := /tmp/apex-ci-snap
CI_SERVE_SOCK := /tmp/apex-ci-serve.sock
CI_SERVE_CACHE := /tmp/apex-ci-serve-cache
CI_SERVE_TRACE := /tmp/apex-ci-serve-trace.json
CI_SERVE_OUT := /tmp/apex-ci-serve-out.json
CI_SERVE_CLI_LINT := /tmp/apex-ci-serve-cli-lint.json
CI_SERVE_CLI_DSE := /tmp/apex-ci-serve-cli-dse.json
CI_SERVE_CLI_PROFILE := /tmp/apex-ci-serve-cli-profile.json
CI_SERVE_CLI_MAP := /tmp/apex-ci-serve-cli-map.json
CI_CRASH_SOCK := /tmp/apex-ci-crash.sock
CI_CRASH_CACHE := /tmp/apex-ci-crash-cache
CI_CRASH_CLEAN_CACHE := /tmp/apex-ci-crash-clean-cache
CI_CRASH_JOURNAL := /tmp/apex-ci-crash.journal
CI_CRASH_TRACE := /tmp/apex-ci-crash-trace.json
CI_CRASH_CLEAN := /tmp/apex-ci-crash-clean.json
CI_CRASH_OUT := /tmp/apex-ci-crash-out.json
CI_CHAOS_A := /tmp/apex-ci-chaos-a.json
CI_CHAOS_B := /tmp/apex-ci-chaos-b.json
CI_DSE_JSON := /tmp/apex-ci-dse-all.json
CI_ANALYZE_JSON := /tmp/apex-ci-analyze-all.json
CI_DSE_PE_JSON := /tmp/apex-ci-dse-pes.json
CI_DSE_REST_JSON := /tmp/apex-ci-dse-rest.json

# The results-identical contract, pinned: md5 of the stdout of
# `dse --all --json --no-cache` and `analyze --all --json --no-cache`,
# and of two more DSE runs: `dse --all -v ip -v ip2 -v ip3 -v ml`
# (instruction selection rejects 31 matches there that would close a
# cycle in the PE netlist) and `dse` on the six kernels `--all` skips.
# A change that moves results on purpose re-records these values and
# gives its reason in CHANGES.md.
DSE_JSON_MD5 := b0027a039fcf325ed4ed5b475dc27fd0
ANALYZE_JSON_MD5 := 527f89a33daeaae293166cd53046f0c6
DSE_PE_JSON_MD5 := 10c2a1332d289c32d363829947a668a5
DSE_REST_JSON_MD5 := 4d37f83e4ca54b7d393f512422d41405

# The daemon must receive SIGTERM itself (dune exec does not forward
# signals to its child), so serve smoke steps run the built binary.
APEX_BIN := ./_build/default/bin/apex_cli.exe

.PHONY: all build test bench perfbench bench-snapshot ci clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# One traced run of the flow benchmark's DSE workload: prints where the
# time and allocation went, layer by layer (mapper, placement, ...).
# Timing-sensitive, so not part of `make ci`.
perfbench:
	python3 perfbench/run.py --workload dse-suite --seed 1 --seconds 10 --trace 1

# Regenerate the committed benchmark-trajectory baselines
# (BENCH_{mining,merging,smt,configspace,dse}.json at the repo root):
# exact phase counters plus each layer's own allocation in kilowords.
# No wall clock: perfbench gates time.  APEX_JOBS=1 keeps every span on
# one domain, where a layer's words reproduce across processes.  Run
# this — and commit the result — when a change intentionally moves the
# search-space counters or a layer's allocation.
bench-snapshot:
	APEX_JOBS=1 dune exec bench/main.exe -- --snapshot

# Build, run the full test suite, then check the pinned result digests
# (DSE_JSON_MD5, ANALYZE_JSON_MD5, DSE_PE_JSON_MD5, DSE_REST_JSON_MD5
# above), then the static-analysis gates: the
# abstract interpreter must produce facts and a validated node-count
# reduction on the built-in kernels (analyze --all --no-cache, and
# --no-cache on the --configs step too: a stored report would replay
# these counters without computing them); a warm
# analyze --all on a scratch cache must be served from the store
# (replayed counters, no store miss, no solver call) with the cold
# run's results; and
# the optimized
# flow must lint clean with warnings fatal (the raw kernels carry
# provable redundancy that APX1xx legitimately flags, so --werror is
# checked on the --optimize flow the analysis layer feeds).
# Then smoke-test the instrumented flow: a traced,
# --check-verified profile of the camera pipeline must produce a
# well-formed JSON report with the key search counters populated —
# including proof that the phase-boundary lint checkers actually ran.
# (--no-cache: a warm artifact cache would legitimately zero the
# phase counters this step requires.)
#
# Then the execution-runtime guards:
#   determinism  — the full profile with --jobs 4 must produce a report
#                  identical to --jobs 1 modulo timing fields, and map
#                  each climb-scored pair once (dse.covers_reused); so
#                  must the full DSE job at --jobs 2, whose runners
#                  evaluate pairs while the caller builds the next
#                  variant, and a pe1-then-spec job, whose PE 1 pair
#                  is built before the climb scores PE 1 (a pair
#                  reuses only the covers of variants built before it,
#                  at every width);
#   cache        — a warm rerun against a scratch cache must hit on
#                  every lookup (exec.cache_hits, no exec.cache_misses:
#                  a key that depended on how a value was built would
#                  miss here) without a solver call, replay the
#                  configuration-space counters its store hits skip the
#                  proofs of, and compute identical results;
#                  between the two runs, a negative `cache gc` budget is
#                  rejected (exit exactly 2) and deletes nothing.
# First, flag checks: --jobs 0 is an invalid argument (exit exactly 2)
# on the flow subcommands, as it is on serve, and so is mine --top=-1,
# as it is in a served mine spec, and so are a negative placement
# --effort and a negative compile --sim frame count.  Then `compile`
# runs end to end under PE Base (map, place, route and pipeline through
# the DSE back end, bitstream, fabric simulation): a MISMATCH against
# the golden model exits 1.
ci: build test
	dune exec bin/apex_cli.exe -- dse --all --json --no-cache > $(CI_DSE_JSON)
	echo "$(DSE_JSON_MD5)  $(CI_DSE_JSON)" | md5sum -c -
	dune exec bin/apex_cli.exe -- dse --all -v ip -v ip2 -v ip3 -v ml --json --no-cache > $(CI_DSE_PE_JSON)
	echo "$(DSE_PE_JSON_MD5)  $(CI_DSE_PE_JSON)" | md5sum -c -
	dune exec bin/apex_cli.exe -- dse laplacian stereo fast sobel median3 resize --json --no-cache > $(CI_DSE_REST_JSON)
	echo "$(DSE_REST_JSON_MD5)  $(CI_DSE_REST_JSON)" | md5sum -c -
	dune exec bin/apex_cli.exe -- analyze --all --json --no-cache > $(CI_ANALYZE_JSON)
	echo "$(ANALYZE_JSON_MD5)  $(CI_ANALYZE_JSON)" | md5sum -c -
	dune exec bin/apex_cli.exe -- mine gaussian --jobs 0 2> /dev/null; test $$? -eq 2
	dune exec bin/apex_cli.exe -- mine gaussian --top=-1 2> /dev/null; test $$? -eq 2
	dune exec bin/apex_cli.exe -- evaluate gaussian -l pnr --effort=-1 2> /dev/null; test $$? -eq 2
	dune exec bin/apex_cli.exe -- compile gaussian --sim=-1 2> /dev/null; test $$? -eq 2
	set -e; for a in $$($(APEX_BIN) apps | awk 'NR > 1 { print $$1 }'); do \
	  for v in base spec:$$a ip ml; do \
	    $(APEX_BIN) compile $$a -v $$v --sim 3 > /dev/null \
	      || { echo "compile $$a -v $$v --sim 3 failed"; exit 1; }; \
	  done; \
	done
	dune exec bin/apex_cli.exe -- analyze --all --no-cache --json --trace=$(CI_ANALYZE) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_ANALYZE) \
	  --require analysis.facts_computed \
	  --require analysis.nodes_eliminated \
	  --require analysis.cones_proved \
	  --require analysis.width.checks_run
	rm -rf $(CI_ANALYZE_CACHE)
	APEX_CACHE_DIR=$(CI_ANALYZE_CACHE) dune exec bin/apex_cli.exe -- analyze --all --json --trace=$(CI_ANALYZE_COLD) > /dev/null
	APEX_CACHE_DIR=$(CI_ANALYZE_CACHE) dune exec bin/apex_cli.exe -- analyze --all --json --trace=$(CI_ANALYZE_WARM) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_ANALYZE_WARM) \
	  --require analysis.width.cones_proved --require exec.cache_hits \
	  --forbid exec.cache_misses --forbid smt.solver_calls
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_ANALYZE_COLD) $(CI_ANALYZE_WARM)
	rm -rf $(CI_ANALYZE_CACHE)
	dune exec bin/apex_cli.exe -- analyze --configs --all --optimize --no-cache --json --trace=$(CI_CONFIGS) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_CONFIGS) \
	  --require analysis.configspace.checks_run \
	  --require analysis.configspace.configs_realizable \
	  --require analysis.configspace.proofs_proved
	dune exec bin/apex_cli.exe -- lint --all --optimize --werror
	dune exec bin/apex_cli.exe -- profile camera --check --no-cache --trace=$(CI_TRACE)
	dune exec bin/apex_cli.exe -- trace-check $(CI_TRACE) \
	  --require mining.patterns_grown \
	  --require mining.embeddings_enumerated \
	  --require mining.canon_cache_hits \
	  --require merging.clique_nodes \
	  --require rules.synthesized \
	  --require mapper.cover_attempts \
	  --require dse.memo_hits \
	  --require lint.checks_run
	dune exec bin/apex_cli.exe -- profile --all --jobs 1 --no-cache --trace=$(CI_J1) > /dev/null
	dune exec bin/apex_cli.exe -- profile --all --jobs 4 --no-cache --trace=$(CI_J4) > /dev/null
	dune exec bin/apex_cli.exe -- report-diff $(CI_J1) $(CI_J4)
	dune exec bin/apex_cli.exe -- trace-check $(CI_J1) --require dse.covers_reused
	dune exec bin/apex_cli.exe -- dse --all --no-cache --jobs 1 --trace=$(CI_DSE_J1) > /dev/null
	dune exec bin/apex_cli.exe -- dse --all --no-cache --jobs 2 --trace=$(CI_DSE_J2) > /dev/null
	dune exec bin/apex_cli.exe -- report-diff $(CI_DSE_J1) $(CI_DSE_J2)
	dune exec bin/apex_cli.exe -- dse camera -v pe1:camera -v spec:camera --no-cache --jobs 1 --trace=$(CI_PE1_J1) > /dev/null
	dune exec bin/apex_cli.exe -- dse camera -v pe1:camera -v spec:camera --no-cache --jobs 2 --trace=$(CI_PE1_J2) > /dev/null
	dune exec bin/apex_cli.exe -- report-diff $(CI_PE1_J1) $(CI_PE1_J2)
	rm -rf $(CI_CACHE)
	APEX_CACHE_DIR=$(CI_CACHE) dune exec bin/apex_cli.exe -- profile --all --trace=$(CI_COLD) > /dev/null
	APEX_CACHE_DIR=$(CI_CACHE) dune exec bin/apex_cli.exe -- cache gc --budget-mb=-1 2> /dev/null; test $$? -eq 2
	APEX_CACHE_DIR=$(CI_CACHE) dune exec bin/apex_cli.exe -- profile --all --trace=$(CI_WARM) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_WARM) --require exec.cache_hits \
	  --forbid exec.cache_misses --forbid smt.solver_calls \
	  --require analysis.configspace.checks_run \
	  --require analysis.configspace.proofs_proved
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_COLD) $(CI_WARM)
	$(MAKE) ci-faults
	$(MAKE) ci-serve
	$(MAKE) ci-crash
	$(MAKE) ci-chaos
	$(MAKE) ci-bench

# Serve smoke: start the daemon against a scratch store, submit a mixed
# batch from two tenants, and assert the cache-namespace contract on
# the per-request reports: bob's first request misses (alice's warm
# artifacts are invisible across tenants), alice's rerun hits without a
# single miss (intra-tenant sharing).  Then a clean SIGTERM shutdown,
# whose daemon-side trace must show admitted requests.
# While the daemon is up, the one-execution-path contract: the CLI's
# `lint camera` and `dse camera` --trace reports carry the same results
# section as alice's served lint and dse reports, and `profile camera`
# carries that of the served DSE job spec:camera + pe1:camera.
# Last, alice's first map request stores its post-mapping cover (a
# miss: the DSE job stored only scores), and her repeated one is served
# from the store with no miss and the results of a --no-cache
# `apex map camera -v base`.
.PHONY: ci-serve
ci-serve:
	rm -rf $(CI_SERVE_CACHE) && rm -f $(CI_SERVE_SOCK) $(CI_SERVE_TRACE)
	rm -f $(CI_SERVE_CLI_LINT) $(CI_SERVE_CLI_DSE) $(CI_SERVE_CLI_PROFILE)
	rm -f $(CI_SERVE_CLI_MAP)
	set -e; \
	APEX_CACHE_DIR=$(CI_SERVE_CACHE) $(APEX_BIN) serve \
	  --socket $(CI_SERVE_SOCK) --jobs 4 --trace=$(CI_SERVE_TRACE) & \
	pid=$$!; \
	trap 'kill $$pid 2> /dev/null || true' EXIT; \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  '{"kind":"dse","apps":["camera"]}' \
	  '{"kind":"lint","apps":["camera"]}' \
	  '{"kind":"analyze","apps":["camera"]}'; \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant bob \
	  --out $(CI_SERVE_OUT) '{"kind":"lint","apps":["camera"]}'; \
	$(APEX_BIN) trace-check $(CI_SERVE_OUT) --require exec.cache_misses; \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  --out $(CI_SERVE_OUT) '{"kind":"lint","apps":["camera"]}'; \
	$(APEX_BIN) trace-check $(CI_SERVE_OUT) \
	  --require exec.cache_hits --forbid exec.cache_misses; \
	$(APEX_BIN) lint camera --no-cache --trace=$(CI_SERVE_CLI_LINT) > /dev/null; \
	$(APEX_BIN) trace-check $(CI_SERVE_CLI_LINT) --require lint.checks_run; \
	$(APEX_BIN) report-diff --results-only $(CI_SERVE_CLI_LINT) $(CI_SERVE_OUT); \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  --out $(CI_SERVE_OUT) '{"kind":"dse","apps":["camera"]}'; \
	$(APEX_BIN) dse camera --no-cache --trace=$(CI_SERVE_CLI_DSE) > /dev/null; \
	$(APEX_BIN) trace-check $(CI_SERVE_CLI_DSE) --require dse.memo_misses; \
	$(APEX_BIN) report-diff --results-only $(CI_SERVE_CLI_DSE) $(CI_SERVE_OUT); \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  --out $(CI_SERVE_OUT) \
	  '{"kind":"dse","apps":["camera"],"variants":["spec:camera","pe1:camera"]}'; \
	$(APEX_BIN) profile camera --no-cache --trace=$(CI_SERVE_CLI_PROFILE) > /dev/null; \
	$(APEX_BIN) report-diff --results-only $(CI_SERVE_CLI_PROFILE) $(CI_SERVE_OUT); \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  --out $(CI_SERVE_OUT) '{"kind":"map","app":"camera","variant":"base"}'; \
	$(APEX_BIN) trace-check $(CI_SERVE_OUT) --require exec.cache_misses; \
	$(APEX_BIN) submit --socket $(CI_SERVE_SOCK) --tenant alice \
	  --out $(CI_SERVE_OUT) '{"kind":"map","app":"camera","variant":"base"}'; \
	$(APEX_BIN) trace-check $(CI_SERVE_OUT) \
	  --require exec.cache_hits --forbid exec.cache_misses; \
	$(APEX_BIN) map camera -v base --no-cache --trace=$(CI_SERVE_CLI_MAP) > /dev/null; \
	$(APEX_BIN) report-diff --results-only $(CI_SERVE_CLI_MAP) $(CI_SERVE_OUT); \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT
	$(APEX_BIN) trace-check $(CI_SERVE_TRACE) --require serve.requests_admitted
	rm -rf $(CI_SERVE_CACHE) && rm -f $(CI_SERVE_SOCK)

# Crash-recovery smoke: the journal + per-pair checkpoints must carry a
# daemon across SIGKILL.  First a clean daemon produces the reference
# DSE report.  Then a journaled daemon takes a dse job plus a sleep job
# (--jobs 1, so at kill time one is in flight and one is queued) and is
# killed -9 one second in — no shutdown path runs.  A restart on the
# same journal must replay the unfinished jobs to completion
# (serve.journal_replayed in the daemon trace), a re-submission of the
# same dse job must be results-identical to the clean reference (served
# from the checkpoints the replay wrote), and a --strict scrub of the
# crash-survivor cache must find zero corrupt entries (atomic
# tmp+rename writes: a torn write never becomes an entry).
.PHONY: ci-crash
ci-crash:
	rm -rf $(CI_CRASH_CACHE) $(CI_CRASH_CLEAN_CACHE)
	rm -f $(CI_CRASH_SOCK) $(CI_CRASH_JOURNAL) $(CI_CRASH_TRACE)
	rm -f $(CI_CRASH_CLEAN) $(CI_CRASH_OUT)
	set -e; \
	APEX_CACHE_DIR=$(CI_CRASH_CLEAN_CACHE) $(APEX_BIN) serve \
	  --socket $(CI_CRASH_SOCK) --jobs 1 & \
	pid=$$!; \
	trap 'kill $$pid 2> /dev/null || true' EXIT; \
	$(APEX_BIN) submit --socket $(CI_CRASH_SOCK) --tenant crash \
	  --out $(CI_CRASH_CLEAN) '{"kind":"dse","apps":["camera"]}'; \
	kill -TERM $$pid; wait $$pid; trap - EXIT
	rm -f $(CI_CRASH_SOCK)
	set -e; \
	APEX_CACHE_DIR=$(CI_CRASH_CACHE) $(APEX_BIN) serve \
	  --socket $(CI_CRASH_SOCK) --jobs 1 --journal $(CI_CRASH_JOURNAL) & \
	pid=$$!; \
	trap 'kill -9 $$pid 2> /dev/null || true' EXIT; \
	( $(APEX_BIN) submit --socket $(CI_CRASH_SOCK) --tenant crash \
	    '{"kind":"dse","apps":["camera"]}' > /dev/null 2>&1 || true ) & \
	c1=$$!; \
	sleep 0.2; \
	( $(APEX_BIN) submit --socket $(CI_CRASH_SOCK) --tenant crash \
	    '{"kind":"sleep","seconds":3}' > /dev/null 2>&1 || true ) & \
	c2=$$!; \
	sleep 1; \
	kill -9 $$pid; wait $$pid 2> /dev/null || true; \
	wait $$c1 2> /dev/null || true; wait $$c2 2> /dev/null || true; \
	trap - EXIT
	rm -f $(CI_CRASH_SOCK)
	set -e; \
	APEX_CACHE_DIR=$(CI_CRASH_CACHE) $(APEX_BIN) serve \
	  --socket $(CI_CRASH_SOCK) --jobs 1 --journal $(CI_CRASH_JOURNAL) \
	  --trace=$(CI_CRASH_TRACE) & \
	pid=$$!; \
	trap 'kill $$pid 2> /dev/null || true' EXIT; \
	$(APEX_BIN) submit --socket $(CI_CRASH_SOCK) --tenant crash \
	  --out $(CI_CRASH_OUT) '{"kind":"dse","apps":["camera"]}'; \
	kill -TERM $$pid; wait $$pid; trap - EXIT
	$(APEX_BIN) trace-check $(CI_CRASH_TRACE) --require serve.journal_replayed
	$(APEX_BIN) report-diff --results-only $(CI_CRASH_CLEAN) $(CI_CRASH_OUT)
	APEX_CACHE_DIR=$(CI_CRASH_CACHE) $(APEX_BIN) cache scrub --strict
	rm -rf $(CI_CRASH_CACHE) $(CI_CRASH_CLEAN_CACHE)
	rm -f $(CI_CRASH_SOCK) $(CI_CRASH_JOURNAL)

# Seeded chaos matrix: three seeds' worth of multi-shot fault schedules
# against a real DSE run, each required to exit through the typed
# exit-code map with a recovered verdict (identical or degraded — both
# exit 0; divergence or an escaped exception fails the build).  Then
# determinism gates the harness itself: the same seed must produce a
# byte-identical --json report twice.
.PHONY: ci-chaos
ci-chaos:
	for s in 1 7 13; do \
	  dune exec bin/apex_cli.exe -- chaos camera --seed $$s --faults 3 \
	    || exit 1; \
	done
	dune exec bin/apex_cli.exe -- chaos camera --seed 1 --faults 3 --json \
	  > $(CI_CHAOS_A)
	dune exec bin/apex_cli.exe -- chaos camera --seed 1 --faults 3 --json \
	  > $(CI_CHAOS_B)
	cmp $(CI_CHAOS_A) $(CI_CHAOS_B)
	rm -f $(CI_CHAOS_A) $(CI_CHAOS_B)

# Fault-injection smoke matrix: each registered fault class, injected
# into a real `apex dse camera` run, must (a) exit 0 — the degradation
# ladder recovered — and (b) leave a typed outcome in the report
# (guard.faults_injected plus the class's own marker).  Where the
# ladder guarantees *identical results* (a fault that only costs work:
# SMT exhaustion degrades a proved rule to tested-only, width-SMT
# exhaustion keeps the same narrowings on differential evidence, a
# crashed or corrupted cache entry is recomputed, a dead pool task is
# re-executed inline) the faulted report must also be
# results-identical to the fault-free baseline.  pair-eval and deadline legitimately change
# results (a pair is skipped / a search truncated), so those two assert
# only graceful degradation, not equality.
# Site placement matters: smt-exhaust, pool-worker and deadline need
# --no-cache (a warm cache skips synthesis and mining entirely);
# cache-corrupt needs a *warm* cache (it fires on the first hit);
# store-crash needs a *cold* one (it fires on the first write).
# Last, the store-poisoning gates: a phase deadline degrades mining, then
# rule synthesis, of `dse harris` on a scratch cache; the plain run
# after each must be results-identical to a --no-cache baseline, since
# a degraded result is never stored.  And a deadline that degrades the
# --optimize rewrite of camera evaluates the unoptimized kernel: that
# pair is stored under the kernel it evaluated, so the plain optimized
# run after it must still match --no-cache.  (The gaussian run first
# stores PE Base's configuration-space report, which the deadline would
# otherwise degrade too, changing the variant's key.)  A second plain
# optimized run is warm: it must read the stored rewrite (no solver
# call, no store miss) and still match --no-cache.
.PHONY: ci-faults
ci-faults:
	dune exec bin/apex_cli.exe -- dse camera --no-cache --trace=$(CI_DSE_BASE) > /dev/null
	dune exec bin/apex_cli.exe -- dse camera --no-cache --inject-fault smt-exhaust --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.degraded
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	dune exec bin/apex_cli.exe -- dse camera --no-cache --jobs 4 --inject-fault pool-worker --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require exec.pool_task_retries
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	rm -rf $(CI_FAULT_CACHE)
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera --inject-fault store-crash --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.degraded
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera --inject-fault cache-corrupt --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require exec.cache_corrupt
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera --inject-fault pair-eval --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.skipped
	dune exec bin/apex_cli.exe -- dse camera --no-cache --inject-fault deadline:2000 --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.degraded
	dune exec bin/apex_cli.exe -- dse camera --no-cache --inject-fault width-smt-exhaust --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.degraded \
	  --require analysis.width.tested_only
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	dune exec bin/apex_cli.exe -- dse camera --no-cache --inject-fault configspace-smt-exhaust --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	  --require guard.faults_injected --require guard.outcome.degraded \
	  --require analysis.configspace.proofs_tested
	dune exec bin/apex_cli.exe -- report-diff --results-only $(CI_DSE_BASE) $(CI_DSE_FAULT)
	dune exec bin/apex_cli.exe -- dse harris --no-cache --trace=$(CI_HARRIS_BASE) > /dev/null
	set -e; for d in mining=0.001 synthesis=0.0001; do \
	  rm -rf $(CI_FAULT_CACHE); \
	  APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse harris \
	    --phase-deadline $$d --trace=$(CI_DSE_FAULT) > /dev/null; \
	  dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) \
	    --require guard.outcome.degraded; \
	  APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse harris \
	    --trace=$(CI_HARRIS_PLAIN) > /dev/null; \
	  dune exec bin/apex_cli.exe -- report-diff --results-only \
	    $(CI_HARRIS_BASE) $(CI_HARRIS_PLAIN); \
	done
	rm -rf $(CI_FAULT_CACHE)
	dune exec bin/apex_cli.exe -- dse camera -v base --optimize --no-cache \
	  --trace=$(CI_CAMERA_OPT_BASE) > /dev/null
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse gaussian -v base --optimize > /dev/null
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera -v base --optimize \
	  --phase-deadline analysis=0.00001 --trace=$(CI_DSE_FAULT) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_DSE_FAULT) --require guard.outcome.degraded
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera -v base --optimize \
	  --trace=$(CI_CAMERA_OPT_PLAIN) > /dev/null
	dune exec bin/apex_cli.exe -- report-diff --results-only \
	  $(CI_CAMERA_OPT_BASE) $(CI_CAMERA_OPT_PLAIN)
	APEX_CACHE_DIR=$(CI_FAULT_CACHE) dune exec bin/apex_cli.exe -- dse camera -v base --optimize \
	  --trace=$(CI_CAMERA_OPT_PLAIN) > /dev/null
	dune exec bin/apex_cli.exe -- trace-check $(CI_CAMERA_OPT_PLAIN) \
	  --require exec.cache_hits --forbid exec.cache_misses --forbid smt.solver_calls
	dune exec bin/apex_cli.exe -- report-diff --results-only \
	  $(CI_CAMERA_OPT_BASE) $(CI_CAMERA_OPT_PLAIN)
	rm -rf $(CI_FAULT_CACHE)

# Benchmark-trajectory regression gate: regenerate every snapshot into
# a scratch directory (APEX_JOBS=1, as the committed ones were made) and
# bench-diff it against the committed baseline — any exact-counter
# drift, or a layer whose allocation moved by more than the larger of
# 10% and 64 kw, fails the build.  Then the gate gates itself: perturb
# one counter, and separately double one layer's allocation, in copies
# of a fresh snapshot and assert bench-diff catches each (a seeded
# regression the gate must flag, or the gate is dead).
.PHONY: ci-bench
ci-bench:
	rm -rf $(CI_SNAP) && mkdir -p $(CI_SNAP)
	APEX_JOBS=1 dune exec bench/main.exe -- --snapshot=$(CI_SNAP) > /dev/null
	for a in mining merging smt configspace dse; do \
	  dune exec bin/apex_cli.exe -- bench-diff BENCH_$$a.json $(CI_SNAP)/BENCH_$$a.json || exit 1; \
	done
	sed -E 's/"mining\.patterns_grown": ([0-9]+)/"mining.patterns_grown": 1\1/' \
	  $(CI_SNAP)/BENCH_mining.json > $(CI_SNAP)/perturbed.json
	! dune exec bin/apex_cli.exe -- bench-diff $(CI_SNAP)/BENCH_mining.json $(CI_SNAP)/perturbed.json
	awk '$$1 == "\"mining\":" { n = $$2 + 0; sub(/[0-9]+/, 2 * n) } { print }' \
	  $(CI_SNAP)/BENCH_mining.json > $(CI_SNAP)/perturbed-alloc.json
	! dune exec bin/apex_cli.exe -- bench-diff $(CI_SNAP)/BENCH_mining.json $(CI_SNAP)/perturbed-alloc.json
	rm -rf $(CI_SNAP)

clean:
	dune clean
	rm -f $(CI_TRACE) $(CI_ANALYZE) $(CI_CONFIGS) $(CI_J1) $(CI_J4) $(CI_COLD) $(CI_WARM)
	rm -f $(CI_ANALYZE_COLD) $(CI_ANALYZE_WARM)
	rm -f $(CI_DSE_J1) $(CI_DSE_J2) $(CI_PE1_J1) $(CI_PE1_J2)
	rm -f $(CI_DSE_BASE) $(CI_DSE_FAULT) $(CI_HARRIS_BASE) $(CI_HARRIS_PLAIN)
	rm -f $(CI_CAMERA_OPT_BASE) $(CI_CAMERA_OPT_PLAIN)
	rm -f $(CI_SERVE_SOCK) $(CI_SERVE_TRACE) $(CI_SERVE_OUT)
	rm -f $(CI_SERVE_CLI_LINT) $(CI_SERVE_CLI_DSE) $(CI_SERVE_CLI_PROFILE)
	rm -f $(CI_SERVE_CLI_MAP)
	rm -f $(CI_CRASH_SOCK) $(CI_CRASH_JOURNAL) $(CI_CRASH_TRACE)
	rm -f $(CI_CRASH_CLEAN) $(CI_CRASH_OUT) $(CI_CHAOS_A) $(CI_CHAOS_B)
	rm -f $(CI_DSE_JSON) $(CI_ANALYZE_JSON) $(CI_DSE_PE_JSON) $(CI_DSE_REST_JSON)
	rm -rf $(CI_CACHE) $(CI_FAULT_CACHE) $(CI_SNAP) $(CI_SERVE_CACHE)
	rm -rf $(CI_ANALYZE_CACHE)
	rm -rf $(CI_CRASH_CACHE) $(CI_CRASH_CLEAN_CACHE)
