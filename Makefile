# The local gate for a refactor: build, tests, formatting, the static
# verifier, the interface lint and the golden outputs. CI runs these and
# more (.github/workflows/ci.yml: smoke runs, the checkers, the model
# check).
.PHONY: check build test fmt verify verify-protocol verify-continuous \
	sanitize-smoke bench-smoke churn-smoke native-smoke model-check \
	model-check-negative race-check fsm-check perf-smoke profile \
	golden-check golden-update bench-ledger bench-diff ledger-test \
	build-check exports-check clean

check: build test fmt verify exports-check golden-check

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# The default build is the build that ships (dune-workspace: the release
# profile, with dev's flags restated). Fail if it compiles a lib/ module
# with -opaque (no call across a module boundary would inline), if its
# ocamlopt flags lack -inline 200 (the per-event helpers would stay
# calls), if it lost dev's warnings-as-errors spec, or if the dev
# profile no longer builds clean (it builds in its own directory, so
# the default build is not rebuilt after it).
DEV_WARNINGS = @1..3@5..28@30..39@43@46..47@49..57@61..62@69-40
build-check:
	@rules="$$(dune rules -r @lib/all)" || exit 1; \
	    ! printf '%s\n' "$$rules" | grep -q -x -e ' *-opaque' \
	    || { echo "build-check: the default build passes -opaque to lib/"; exit 1; }
	@dune printenv . | grep -A1 -e '^(ocamlopt_flags' | grep -q -e '-inline 200\b' \
	    || { echo "build-check: the default build's ocamlopt_flags lack -inline 200"; exit 1; }
	@dune printenv . | grep -q -F -e '$(DEV_WARNINGS)' \
	    || { echo "build-check: the default build lacks -w $(DEV_WARNINGS)"; exit 1; }
	dune build --profile dev --build-dir _build_dev

# The interface lint (tools/exports): every value a lib/ module exports
# is used outside that module, and every optional argument of one is
# passed by some call site; exports and optional arguments only test/
# uses are listed. Then the lint's own check: on the fixture under
# tools/exports/fixture (a planted unused value, a planted never-passed
# optional argument, and one case of each way a use resolves) it must
# exit 1 with exactly the report in expected.txt. @check builds the
# .cmt files of the executables.
exports-check: build
	dune build @check
	cd _build/default && ./tools/exports/exports.exe
	@cd _build/default/tools/exports/fixture; \
	    ../exports.exe > $(CURDIR)/_build/exports-fixture.txt; \
	    test $$? -eq 1 || { echo "exports-check: the fixture run did not exit 1"; exit 1; }
	diff -u tools/exports/fixture/expected.txt _build/exports-fixture.txt

# Golden outputs: eleven seeded runs (~35 s) whose output must equal,
# byte for byte, the files under test/golden/. Besides the paper's
# tables, ablations and cross-checks they pin the wiring paths of every
# stack shape: the channel graph of every shipped configuration
# (verify), the split host with a sharded filter (campaign --pf-shards
# 2), and the 8x4x2 sharded stack through a shard crash
# (crash-during-churn). A change that is meant to keep
# the simulated numbers passes as is; one that changes them on purpose
# regenerates the files with `make golden-update` and says why.
SIM = dune exec bin/newtos_sim.exe --
# Assert fields of a JSON output: GATE FILE EXPR... (FILE - for stdin).
GATE = python3 bench/json_gate.py
# The golden table: each file under test/golden/ and the newtos_sim
# arguments that produce it. golden-check diffs against it and
# golden-update regenerates from it.
GOLDENS = table2.txt ablate.txt coalesce.txt crosscheck.txt scaling.txt \
	campaign.json churn-listen-pressure.txt fig4.txt verify.json \
	campaign-pf2.json churn-crash-during-churn.json
GOLDEN_table2.txt = table2
GOLDEN_ablate.txt = ablate
GOLDEN_coalesce.txt = coalesce
GOLDEN_crosscheck.txt = crosscheck
GOLDEN_scaling.txt = scaling --duration 0.1
GOLDEN_campaign.json = campaign --runs 20 --json
GOLDEN_churn-listen-pressure.txt = churn --scenario listen-pressure
GOLDEN_fig4.txt = fig4
GOLDEN_verify.json = verify --json
GOLDEN_campaign-pf2.json = campaign --runs 4 --pf-shards 2 --json
GOLDEN_churn-crash-during-churn.json = churn --scenario crash-during-churn \
	--duration 0.25 --rate 4000 --json
golden-check: build
	@test "$$(ls test/golden | sort)" = "$$(printf '%s\n' $(GOLDENS) | sort)" \
	    || { echo "test/golden/ and GOLDENS list different files"; exit 1; }
	@set -e; $(foreach f,$(GOLDENS), \
	    echo "golden-check $(f): newtos_sim $(GOLDEN_$(f))"; \
	    $(SIM) $(GOLDEN_$(f)) | diff -u test/golden/$(f) -;)

golden-update: build
	@set -e; $(foreach f,$(GOLDENS), \
	    echo "golden-update $(f): newtos_sim $(GOLDEN_$(f))"; \
	    $(SIM) $(GOLDEN_$(f)) > test/golden/$(f).new; \
	    mv test/golden/$(f).new test/golden/$(f);)

# Static channel-graph verification over every shipped configuration
# (split stack plus all shard/replica combinations): SPSC discipline,
# core affinity, blocking cycles, republish completeness, shard maps.
verify: build
	dune exec bin/newtos_sim.exe -- verify

# Dynamic channel-protocol verification: replay the figure-4/5 crash
# runs under the request/confirm contract checker — every request
# confirmed or aborted, stale confirms absorbed, no confirm dropped
# while its requester is pending. Any open obligation exits 1.
verify-protocol: build
	dune exec bin/newtos_sim.exe -- verify --protocol

# Recovery model checking: exhaustively crash every component right
# after every labeled recovery step (split stack and sharded N=2 r=2
# pf=2, PF shards included),
# re-crashing during recovery, and require convergence plus clean
# continuous/protocol checkers at every crash point. The budget, in
# seconds of process CPU time per configuration (Mcheck.search reads
# Sys.time), keeps CI bounded; skipped points are reported, never
# silently dropped.
MCHECK_BUDGET ?= 240
model-check: build
	dune exec bin/newtos_sim.exe -- mcheck --json --budget $(MCHECK_BUDGET)

# The negative controls: a sabotaged recovery must produce
# counterexamples — exit 1 and at least one crash point carrying a
# non-empty protocol event trace. Split stack (restarted IP server on
# the wrong core) and sharded stack (restarted PF shard on the wrong
# core).
model-check-negative: build
	! dune exec bin/newtos_sim.exe -- mcheck --config split \
	    --break-recovery ip:wrong-core --json > _mcheck_negative.json
	$(GATE) _mcheck_negative.json \
	    'any(c["trace"] for o in j for c in o["counterexamples"])'
	rm -f _mcheck_negative.json
	! dune exec bin/newtos_sim.exe -- mcheck --config sharded \
	    --break-recovery pf:wrong-core --json > _mcheck_negative_pf.json
	$(GATE) _mcheck_negative_pf.json \
	    'any(not v["converged"] for o in j for v in o["verdicts"])'
	rm -f _mcheck_negative_pf.json

# Race checking, static + dynamic. Static: the native pinning plan
# must lint clean (every cross-domain edge on a sanctioned primitive)
# and each planted sabotage must be flagged. Dynamic: a short native
# run with the vector-clock detector armed must report zero races,
# also sampled at 1/16 with the TCP checker alongside (sampling may
# hide a violation but must never invent one), and each --break-race
# mode must exit 1 through the detector with a trace-carrying
# counterexample (unsampled). The hook micro-benchmark must show its
# sampled run keeping some accesses but not all. --allow-oversubscribe keeps the gate
# meaningful on 1-core CI boxes: the detector checks ordering, not
# parallelism, so time-sliced domains are fine.
race-check: build
	dune exec bin/newtos_sim.exe -- verify --native-ownership --json \
	    | $(GATE) - 'j["ok"] is True'
	! dune exec bin/newtos_sim.exe -- verify --native-ownership \
	    --break-race spsc:two-producers --json > _race_lint.json
	$(GATE) _race_lint.json 'j["ok"] is False' \
	    'any(v["check"] == "ring-spsc" for v in j["violations"])'
	! dune exec bin/newtos_sim.exe -- verify --native-ownership \
	    --break-race loop:unfenced-counter --json > _race_lint.json
	$(GATE) _race_lint.json \
	    'any(v["check"] == "cross-domain" for v in j["violations"])'
	rm -f _race_lint.json
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --race --json > _race_run.json
	$(GATE) _race_run.json 'j["race"]["races"] == 0'
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --race --tcp-fsm --verify-sample 16 --json \
	    > _race_run.json
	$(GATE) _race_run.json 'j["race"]["races"] == 0' \
	    'j["tcpfsm"]["component"] == "tcp-fsm"' 'j["tcpfsm"]["ok"] is True'
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --break-race spsc:two-producers --json \
	    > _race_run.json
	$(GATE) _race_run.json 'j["race"]["ok"] is False' \
	    'any(c["trace"] for c in j["race"]["counterexamples"])'
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --break-race loop:unfenced-counter --json \
	    > _race_run.json
	$(GATE) _race_run.json 'j["race"]["ok"] is False'
	rm -f _race_run.json
	dune exec bench/main.exe -- micro-hook | $(GATE) - \
	    '0 < j[0]["hook_native"]["accesses_kept"] < j[0]["hook_native"]["accesses_seen"]'

# TCP conformance checking, both polarities. Positive: the rule table
# lints total/deterministic/no-dead-rules, and the fig4/fig5 crash
# replays plus a crash-during-churn flood replay run violation-free
# under the checker, in the simulator and on the native runtime.
# Negative: each --break-tcp sabotage (a crashed shard's ESTABLISHED
# connections resurrected without a handshake; a bare ACK where RFC
# 793 demands RST) must exit 1 through the checker with a
# trace-carrying counterexample, again in both runtimes.
fsm-check: build
	dune exec bin/newtos_sim.exe -- verify --tcp-fsm
	! dune exec bin/newtos_sim.exe -- churn --scenario crash-during-churn \
	    --break-tcp stale-established --duration 0.4 --rate 2000 \
	    --shards 4 --json > _fsm.json
	$(GATE) _fsm.json 'j[0]["tcpfsm"]["ok"] is False' 'j[0]["tcpfsm"]["trace"]'
	! dune exec bin/newtos_sim.exe -- churn --scenario syn-flood \
	    --break-tcp ack-from-closed --duration 0.4 --rate 2000 \
	    --shards 4 --json > _fsm.json
	$(GATE) _fsm.json \
	    'any(v["check"] == "ack-from-wrong-state" for v in j[0]["tcpfsm"]["violations"])' \
	    'j[0]["tcpfsm"]["trace"]'
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --tcp-fsm --json > _fsm.json
	$(GATE) _fsm.json 'j["tcpfsm"]["component"] == "tcp-fsm"' \
	    'j["tcpfsm"]["ok"] is True'
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --break-tcp ack-from-closed --json \
	    > _fsm.json
	$(GATE) _fsm.json 'j["tcpfsm"]["ok"] is False' 'j["tcpfsm"]["trace"]'
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --break-tcp stale-established --json \
	    > _fsm.json
	$(GATE) _fsm.json \
	    'any(v["check"] == "illegal-transition" for v in j["tcpfsm"]["violations"])' \
	    'j["tcpfsm"]["trace"]'
	rm -f _fsm.json

# Continuous verification: a sanitized fault campaign that re-runs the
# static checker against the live topology after every reincarnation
# and leak-checks each quiesced run tail. Any violation or leak exits 1.
verify-continuous: build
	dune exec bin/newtos_sim.exe -- campaign --runs 5 --sanitize --verify-continuous

# One fault-injection run with the pool-ownership sanitizer armed: any
# double-free, free-while-in-flight or non-owner write fails the build.
sanitize-smoke: build
	dune exec bin/newtos_sim.exe -- fig4 --sanitize

# One fast scaling iteration (single point, short duration): catches a
# wiring regression in the sharded/replicated stack without the cost of
# the full curve — one point with the sharded packet filter on the path
# (pf_shards=2). One scaling point and one churn run go with the
# sanitizer, the protocol checker and the continuous checker armed,
# which must all stay clean. Also asserts the verifier counter block
# and the per-PF-shard counter block are present in the
# machine-readable campaign output.
bench-smoke: build
	dune exec bin/newtos_sim.exe -- scaling --shards 2 --ip-replicas 2 --flows 2 --duration 0.05
	dune exec bin/newtos_sim.exe -- scaling --shards 2 --ip-replicas 2 --pf-shards 2 --flows 2 --duration 0.05
	dune exec bin/newtos_sim.exe -- scaling --shards 2 --ip-replicas 2 --flows 2 --duration 0.05 \
	    --sanitize --protocol --verify-continuous
	dune exec bin/newtos_sim.exe -- churn --duration 0.1 --sanitize --protocol --verify-continuous
	dune exec bin/newtos_sim.exe -- campaign --runs 2 --sanitize --verify-continuous --json \
	    | $(GATE) - 'j["counters"]["re_checks"] >= 1' 'len(j["run_counters"]) == 2'
	dune exec bin/newtos_sim.exe -- campaign --runs 2 --pf-shards 2 --json \
	    | $(GATE) - '[p["shard"] for p in j["pf_shards"]] == [0, 1]'
	dune exec bin/newtos_sim.exe -- churn --duration 0.25 --rate 4000 \
	    --tcp-fsm --json > _bench_fsm.json
	$(GATE) _bench_fsm.json 'j[0]["tcpfsm"]["component"] == "tcp-fsm"' \
	    'j[0]["tcpfsm"]["ok"] is True' 'j[0]["tcpfsm"]["segments"] >= 1'
	rm -f _bench_fsm.json
	dune exec bench/main.exe -- micro-spsc \
	    | $(GATE) - 'j[0]["spsc_cross_domain"]["messages"] > 0'
	dune exec bench/main.exe -- profile \
	    | $(GATE) - 'j["profile"]["frames"]' 'j["profile"]["self"]'

# Churn smoke: short flow-churn runs with the continuous checker
# attached. Asserts the streaming-histogram percentile block is in the
# JSON, that the SYN flood forces half-open (never established)
# conntrack evictions, that listen-queue pressure trips the backlog
# cap, and that a shard crash mid-churn recovers cleanly. Out-of-range
# arguments (a zero rate, empty planes) must be usage errors: exit 2
# with a message, never a hang or an uncaught exception.
churn-smoke: build
	dune exec bin/newtos_sim.exe -- churn --duration 0.25 --rate 4000 \
	    --json --verify-continuous > _churn.json
	$(GATE) _churn.json \
	    'all(j[0][t]["p99_us"] > 0 for t in ("connect", "request"))' \
	    'all(j[0][t]["p999_us"] >= j[0][t]["p99_us"] for t in ("connect", "request"))'
	dune exec bin/newtos_sim.exe -- churn --scenario syn-flood \
	    --duration 0.25 --rate 4000 --flood-rate 15000 \
	    --conntrack-total 1024 --json --verify-continuous > _churn.json
	$(GATE) _churn.json 'j[0]["conntrack"]["evicted_half_open"] >= 1' \
	    'j[0]["conntrack"]["evicted_established"] == 0'
	dune exec bin/newtos_sim.exe -- churn --scenario listen-pressure \
	    --duration 0.25 --json --verify-continuous > _churn.json
	$(GATE) _churn.json 'j[0]["listen_overflows"] >= 1'
	dune exec bin/newtos_sim.exe -- churn --scenario crash-during-churn \
	    --duration 0.3 --rate 3000 --json --verify-continuous > _churn.json
	$(GATE) _churn.json 'j[0]["shard_restarts"] == 1'
	rm -f _churn.json
	$(SIM) churn --rate 0 --duration 0.01 2> _churn.err; test $$? -eq 2
	grep -q '^newtos_sim churn: ' _churn.err
	$(SIM) churn --shards 0 2> _churn.err; test $$? -eq 2
	grep -q '^newtos_sim churn: ' _churn.err
	$(SIM) scaling --ip-replicas 0 2> _churn.err; test $$? -eq 2
	grep -q '^newtos_sim scaling: ' _churn.err
	$(SIM) campaign --pf-shards 0 2> _churn.err; test $$? -eq 2
	grep -q '^newtos_sim campaign: ' _churn.err
	rm -f _churn.err

# A bounded run of the native runtime: the component servers on two
# real OCaml domains over real SPSC rings, iperf bulk + split-stack
# ping, exercised for one second. --skip-unsupported makes the target
# exit 0 with a visible SKIP line on machines with fewer than two
# cores; it never silently falls back to the simulator.
native-smoke: build
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --skip-unsupported --json

# Benchmark smoke: every perfbench workload once, for one second and
# untraced. Each run's last JSON line must report `correct` and zero
# failed operations, and each workload must peak below its heap bound
# (HEAP_LIMIT_MB in bench/perf_smoke.py).
perf-smoke: build
	python3 bench/perf_smoke.py

# The performance ledger (bench/ledger.py). bench-ledger runs every
# perfbench workload at seeds 1-3, untraced and traced, for
# BENCHMARK.json's run_seconds (~9 min in all), and writes
# BENCH_<PR>.json: end-to-end and per-layer medians and quartiles, the
# cost-model fingerprint and the commit. PR defaults to one past the
# newest ledger. bench-diff compares NEW (default: a fresh run) with
# the newest other ledger under BENCHMARK.json's bounds and exits 1 on
# a regression beyond a bound; a per-layer change inside either side's
# quartiles is marked within spread, and a changed fingerprint is
# reported as a changed model. ledger-test diffs hand-written ledgers.
bench-ledger:
	python3 bench/ledger.py run $(if $(PR),--pr $(PR))

bench-diff:
	python3 bench/ledger.py diff $(NEW)

ledger-test:
	python3 bench/test_ledger.py

# Where a bulk run's host CPU goes: a SIGPROF call-stack sampler
# (ITIMER_PROF, 1 ms of process CPU per sample) around the split Host
# with five saturated 1 Gbps NICs, the 0.3 s span repeated until it
# has at least 2,000 samples. Prints the top inclusive frames and the
# top self frames (innermost OCaml frame per sample) as one JSON line.
profile: build
	dune exec bench/main.exe -- profile

clean:
	dune clean
