# Convenience targets; everything is plain dune underneath.

.PHONY: all build test golden bench bench-datapath bench-parallel lint loc check telemetry-check fuzz-smoke exhibits extensions sweeps examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

# Regenerate the goldens and print what changed:
# test/golden/fig5-2ms.digest (MD5 of the fig5 telemetry trace, metrics
# and stdout) and test/golden/corpus.digest (MD5 of every corpus
# case's single-sim and partitioned jobs=1 outcome; `dune runtest`
# fails while either differs) and the stdout
# goldens all-smoke.expected, failover-smoke.expected,
# par-leafspine-{dctcp,mtp}.expected and one <example>.expected per
# example (`dune build @test/golden/smoke` fails while they differ).
golden:
	dune build @test/golden/runtest --auto-promote || dune build @test/golden/runtest
	dune build @test/golden/smoke || { \
	  dune exec bin/mtp_sim.exe -- all --smoke --jobs 2 > test/golden/all-smoke.expected && \
	  dune exec bin/mtp_sim.exe -- failover --duration-ms 16 --fail-ms 5 --detect-ms 3 --restore-ms 11 > test/golden/failover-smoke.expected && \
	  dune exec bin/mtp_sim.exe -- par-leafspine --transport dctcp --jobs 2 > test/golden/par-leafspine-dctcp.expected && \
	  dune exec bin/mtp_sim.exe -- par-leafspine --transport mtp --jobs 2 > test/golden/par-leafspine-mtp.expected && \
	  for e in quickstart innetwork_cache multipath_blob tenant_isolation \
	      ml_aggregation rpc_loadbalancer ndp_incast; do \
	    dune exec examples/$$e.exe > test/golden/$$(echo $$e | tr _ -).expected || exit 1; \
	  done; }

# The repo benchmark (BENCHMARK.json): end-to-end and per-layer
# metrics on five workloads (untraced and traced passes).
bench:
	dune exec bench/suite/mtpbench.exe

# Engine guardrails, one program writing every section of
# BENCH_engine.json: engine event/timer costs, dispatch at depth (8192
# pending timers re-armed at random offsets), pooled packet
# forwarding, the 64 -> 4096 host fabric-scale sweep, and the MTP
# sender's minor words and ns per acked packet at backlogs of 1, 16
# and 128 messages.  `--guardrail` fails on allocation regressions
# against the seed's words per event and per packet, on a timer
# re-arm or deep-heap dispatch allocating (bar 0.00 words per re-arm
# and per event), on minor
# words/event growing with fabric size (bar 1.15x of the 64-host
# value), on a routing lookup or a switch ingress allocating, or on
# MTP words per acked packet growing with the backlog (bar 1.15x of
# the 1-message value) or, at 1 message, exceeding 1.15x of the value
# recorded in bench/datapath.ml.  MTP ns per acked packet at 128
# messages must stay within 2.0x of the 1-message value (absolute ns
# are recorded, not gated), the median of 11 per-round ratios of
# passes run back to back.
bench-datapath:
	dune exec bench/datapath.exe -- --guardrail

# Scaling bench: the fixed fig5 sweep at jobs {1,2,4,8} plus the
# partitioned single-scenario exhibit at jobs 1 vs 2.  Writes
# BENCH_parallel.json (core count, scaling array, single-scenario
# digest check and jobs=1 minor words per event; see README for the
# schema).  Always fails if any width's rows or the scenario digests
# differ (determinism).  `--guardrail` additionally enforces, on any
# host, that the scenario's words per event stay within 1.15x of the
# value recorded in bench/parallel.ml, and, on multi-core hosts, the
# not-slower bound at the requested width and that the jobs=2 speedup
# has not regressed below the recorded baseline beyond the tolerance;
# single-core hosts skip the wall-clock checks with a JSON note.
bench-parallel:
	dune exec bench/parallel.exe -- --jobs 2 --guardrail

# Static analysis: determinism, domain-safety, hot-path and
# unused-surface policy (see DESIGN.md "Static analysis: simlint" and
# `simlint --list-rules`), run on the typedtrees of the build just
# made.  `@check` also writes the cmts of executables whose module has
# an interface, which `@all` alone skips.  Exits non-zero on any
# finding not covered by an inline pragma or simlint.allow, and on a
# stale simlint.allow entry.
lint:
	dune build @all @check
	dune exec bin/simlint.exe -- --root . lib bin bench

# Lines of OCaml source (.ml and .mli) per top-level directory, and
# the total of lib, bin, bench and examples: the code the simulator
# ships, with the tests counted apart.
loc:
	@for d in lib bin bench examples test; do \
	  ml=$$(find $$d -name '*.ml' -exec cat {} + | wc -l); \
	  mli=$$(find $$d -name '*.mli' -exec cat {} + | wc -l); \
	  printf '%-9s %6d ml %6d mli %6d total\n' $$d $$ml $$mli $$((ml + mli)); \
	done
	@printf 'lib+bin+bench+examples %d\n' \
	  $$(find lib bin bench examples \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)

# Verification harness smoke: replay the checked-in crash corpus, then
# run a seeded fuzz campaign (oracles + differential pairings on every
# case) under a wall-clock cap.  Any oracle violation or digest
# divergence exits non-zero and leaves a shrunk repro in test/corpus/.
fuzz-smoke:
	dune exec bin/mtp_sim.exe -- fuzz --replay test/corpus
	dune exec bin/mtp_sim.exe -- fuzz --cases 200 --seed 1 --budget-s 120

# CI gate: full build, the test suite, a quick datapath bench that
# must produce the allocation/throughput and fabric-scale guardrail
# report, the parallel-runner scaling bench with its not-slower guardrail, a
# shortened failover run exercising fault injection end to end and a
# parallel `all --smoke` pass regenerating every exhibit on two
# domains (diffed with the other stdout goldens), a telemetry
# export check (JSONL parses, same-seed runs byte-identical), and the
# corpus-replay + seeded-fuzz smoke.
check:
	dune build @all
	$(MAKE) lint
	dune runtest --force
	$(MAKE) fuzz-smoke
	rm -f BENCH_engine.json
	$(MAKE) bench-datapath
	test -f BENCH_engine.json
	$(MAKE) bench-parallel
	test -f BENCH_parallel.json
	dune build @test/golden/smoke
	$(MAKE) telemetry-check

# Run one exhibit twice with telemetry export on: the JSONL trace must
# parse line by line and both same-seed runs must be byte-identical.
telemetry-check:
	rm -rf _telemetry_check && mkdir -p _telemetry_check
	dune exec bin/mtp_sim.exe -- fig5 --duration-ms 2 --trace _telemetry_check/t1.jsonl --metrics _telemetry_check/m1.csv > /dev/null
	dune exec bin/mtp_sim.exe -- fig5 --duration-ms 2 --trace _telemetry_check/t2.jsonl --metrics _telemetry_check/m2.csv > /dev/null
	cmp _telemetry_check/t1.jsonl _telemetry_check/t2.jsonl
	cmp _telemetry_check/m1.csv _telemetry_check/m2.csv
	python3 -c "import json,sys; [json.loads(l) for l in open('_telemetry_check/t1.jsonl')]; print('trace JSONL ok')"
	head -1 _telemetry_check/m1.csv | grep -q '^run,metric,kind,field,value$$'
	rm -rf _telemetry_check

exhibits:
	dune exec bin/mtp_sim.exe -- all

extensions:
	dune exec bin/mtp_sim.exe -- extensions

sweeps:
	dune exec bin/mtp_sim.exe -- sweeps

examples:
	dune exec examples/quickstart.exe
	dune exec examples/innetwork_cache.exe
	dune exec examples/multipath_blob.exe
	dune exec examples/tenant_isolation.exe
	dune exec examples/ml_aggregation.exe
	dune exec examples/rpc_loadbalancer.exe
	dune exec examples/ndp_incast.exe

clean:
	dune clean
