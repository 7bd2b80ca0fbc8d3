# Convenience targets; everything is plain dune underneath.

.PHONY: all build test golden bench bench-smoke bench-datapath bench-record lint loc check telemetry-check fuzz-smoke exhibits extensions sweeps examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

# Regenerate the goldens and print what changed:
# test/golden/fig5-2ms.digest (MD5 of the fig5 telemetry trace, metrics
# and stdout), test/golden/telemetry-jobs.digest (MD5 of the
# par-leafspine trace and the extensions trace and metrics, exported at
# --jobs 2) and test/golden/corpus.digest (MD5 of every corpus
# case's single-sim and partitioned jobs=1 outcome; `dune runtest`
# fails while any differs) and the stdout
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

# The benchmark's own correctness check: every workload at 1/50 size
# against its pins in bench/suite/pins.ml (about 3 s).  Exits non-zero
# unless it ends "correct: all checks passed".
bench-smoke:
	dune exec bench/suite/mtpbench.exe -- --smoke

# Guardrails, one program writing every section of
# _build/BENCH_engine.json: engine event/timer costs, dispatch at depth (8192
# pending timers re-armed at random offsets), pooled packet
# forwarding, the 64 -> 4096 host fabric-scale sweep, the MTP
# sender's minor words and ns per acked packet at backlogs of 1, 16
# and 128 messages, a warm DCTCP stream's minor words per delivered
# segment, and the parallel runner: a fixed fig5 sweep at jobs
# {1,2,4,8} and the partitioned leaf-spine scenario at jobs 1 vs 2.  `--guardrail` fails on an allocation regression
# against the seed's words per event, on a timer re-arm, a pooled
# packet forward or deep-heap dispatch allocating (bar 0.00 words per
# re-arm, per packet and per event), on minor words/event growing
# with fabric size (bar 1.15x of the 64-host value) or reaching 0.05
# minor words per delivered packet at any point of the sweep (the
# pool and the sinks are built once per point), on a routing
# lookup or a switch ingress (through a real Routing.ecmp verdict)
# allocating, or on MTP words per acked packet growing with the
# backlog (bar 1.15x of the 1-message value) or, at 1 message,
# exceeding 1.15x of the value recorded in bench/datapath.ml (as must
# the failover point: a two-path fabric with path A down and its
# pathlet suspect, and MTP words per 1-packet message over the host
# pair), or on the DCTCP stream reaching 0.05 words per segment.  MTP ns per acked packet at 128
# messages must stay within 2.0x of the 1-message value (absolute ns
# are recorded, not gated), the median of 11 per-round ratios of
# passes run back to back.  The parallel section fails if any width's
# sweep rows or the two scenario digests differ in any pass
# (determinism), or the jobs=1 scenario's minor words per event exceed
# 1.15x the value recorded in bench/datapath.ml; on multi-core hosts,
# if the sweep at jobs=2 is slower than serial beyond 10%, or, on a
# host with the recorded core count, if its speedup (median of 11
# per-round ratios) falls below the recorded one beyond 10%.
bench-datapath:
	dune exec bench/datapath.exe -- --guardrail

# Commit what the last bench-datapath run wrote under _build/: copies
# it over the committed BENCH_engine.json.  Only on purpose; `make
# check` leaves the committed file as it is.
bench-record:
	cp _build/BENCH_engine.json .

# Static analysis: determinism, domain-safety, hot-path and
# unused-surface policy (see DESIGN.md "Static analysis: simlint" and
# `simlint --list-rules`), run on the typedtrees of the build just
# made.  `@check` also writes the cmts of executables whose module has
# an interface, which `@all` alone skips.  Exits non-zero on any
# finding no inline pragma covers, and on a stale pragma: one that
# suppresses no finding, or names no rule.
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

# CI gate: full build, the test suite, the benchmark's correctness
# smoke (every workload's pins), the guardrail bench that must
# produce the allocation/throughput, fabric-scale and parallel-runner
# report, a shortened failover run exercising fault injection end to end and a
# parallel `all --smoke` pass regenerating every exhibit on two
# domains (diffed with the other stdout goldens), a telemetry
# export check (JSONL parses, same-seed runs byte-identical), and the
# corpus-replay + seeded-fuzz smoke.  It ends by checking that the
# committed bench file is unchanged: the bench writes under _build/.
check:
	dune build @all
	$(MAKE) lint
	dune runtest --force
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	rm -f _build/BENCH_engine.json
	$(MAKE) bench-datapath
	test -f _build/BENCH_engine.json
	dune build @test/golden/smoke
	$(MAKE) telemetry-check
	git diff --exit-code -- BENCH_engine.json

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
