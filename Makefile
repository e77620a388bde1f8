# Tier-1 gate: what CI runs on every PR.
.PHONY: check build test fmt verify verify-protocol verify-continuous \
	sanitize-smoke bench-smoke churn-smoke native-smoke model-check \
	model-check-negative race-check fsm-check perf-smoke profile \
	golden-check clean

check: build test fmt verify

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# Golden outputs: five seeded runs (~20 s) whose output must equal, byte
# for byte, the files under test/golden/. A change that is meant to keep
# the simulated numbers passes as is; one that changes them on purpose
# regenerates the files with the same commands and says why.
SIM = dune exec bin/newtos_sim.exe --
golden-check: build
	$(SIM) table2 | diff -u test/golden/table2.txt -
	$(SIM) scaling --duration 0.1 | diff -u test/golden/scaling.txt -
	$(SIM) campaign --runs 20 --json | diff -u test/golden/campaign.json -
	$(SIM) churn --scenario listen-pressure \
	    | diff -u test/golden/churn-listen-pressure.txt -
	$(SIM) fig4 | diff -u test/golden/fig4.txt -

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
# continuous/protocol checkers at every crash point. The wall-clock
# budget (CPU seconds per configuration) keeps CI bounded; skipped
# points are reported, never silently dropped.
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
	grep -q '"trace":\["' _mcheck_negative.json
	rm -f _mcheck_negative.json
	! dune exec bin/newtos_sim.exe -- mcheck --config sharded \
	    --break-recovery pf:wrong-core --json > _mcheck_negative_pf.json
	grep -q '"converged":false' _mcheck_negative_pf.json
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
	    | grep -q '"ok":true'
	! dune exec bin/newtos_sim.exe -- verify --native-ownership \
	    --break-race spsc:two-producers --json > _race_lint.json
	grep -q '"ok":false' _race_lint.json
	grep -q '"ring-spsc"' _race_lint.json
	! dune exec bin/newtos_sim.exe -- verify --native-ownership \
	    --break-race loop:unfenced-counter --json > _race_lint.json
	grep -q '"cross-domain"' _race_lint.json
	rm -f _race_lint.json
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --race --json > _race_run.json
	grep -q '"races":0' _race_run.json
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --race --tcp-fsm --verify-sample 16 --json \
	    > _race_run.json
	grep -q '"races":0' _race_run.json
	grep -q '"tcpfsm":{"component":"tcp-fsm","ok":true' _race_run.json
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --break-race spsc:two-producers --json \
	    > _race_run.json
	grep -q '"ok":false' _race_run.json
	grep -q '"trace":\["' _race_run.json
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 0.6 \
	    --allow-oversubscribe --break-race loop:unfenced-counter --json \
	    > _race_run.json
	grep -q '"ok":false' _race_run.json
	rm -f _race_run.json
	dune exec bench/main.exe -- micro-hook | python3 -c 'import json, sys; \
	    h = [json.loads(l)["hook_native"] for l in sys.stdin if l.startswith("{")][0]; \
	    assert 0 < h["accesses_kept"] < h["accesses_seen"], h'

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
	grep -q '"ok":false' _fsm.json
	grep -q '"trace":\["' _fsm.json
	! dune exec bin/newtos_sim.exe -- churn --scenario syn-flood \
	    --break-tcp ack-from-closed --duration 0.4 --rate 2000 \
	    --shards 4 --json > _fsm.json
	grep -q '"ack-from-wrong-state"' _fsm.json
	grep -q '"trace":\["' _fsm.json
	dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --tcp-fsm --json > _fsm.json
	grep -q '"tcpfsm":{"component":"tcp-fsm","ok":true' _fsm.json
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --break-tcp ack-from-closed --json \
	    > _fsm.json
	grep -q '"ok":false' _fsm.json
	grep -q '"trace":\["' _fsm.json
	! dune exec bin/newtos_sim.exe -- native --domains 2 --seconds 1 \
	    --allow-oversubscribe --break-tcp stale-established --json \
	    > _fsm.json
	grep -q '"illegal-transition"' _fsm.json
	grep -q '"trace":\["' _fsm.json
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
# (pf_shards=2). Also asserts the verifier counter block and the
# per-PF-shard counter block are present in the machine-readable
# campaign output.
bench-smoke: build
	dune exec bin/newtos_sim.exe -- scaling --shards 2 --ip-replicas 2 --flows 2 --duration 0.05
	dune exec bin/newtos_sim.exe -- scaling --shards 2 --ip-replicas 2 --pf-shards 2 --flows 2 --duration 0.05
	dune exec bin/newtos_sim.exe -- campaign --runs 2 --sanitize --verify-continuous --json | grep -q '"counters"'
	dune exec bin/newtos_sim.exe -- campaign --runs 2 --pf-shards 2 --json | grep -q '"pf_shards":\[{"shard":0,'
	dune exec bin/newtos_sim.exe -- churn --duration 0.25 --rate 4000 \
	    --tcp-fsm --json > _bench_fsm.json
	grep -q '"tcpfsm":{"component":"tcp-fsm","ok":true' _bench_fsm.json
	grep -q '"segments":[1-9]' _bench_fsm.json
	rm -f _bench_fsm.json
	dune exec bench/main.exe -- micro-spsc | grep -q '"spsc_cross_domain"'
	dune exec bench/main.exe -- profile | python3 -c 'import json, sys; \
	    p = json.loads(sys.stdin.read())["profile"]; \
	    assert p["frames"] and p["self"], p'

# Churn smoke: short flow-churn runs with the continuous checker
# attached. Asserts the streaming-histogram percentile block is in the
# JSON, that the SYN flood forces half-open (never established)
# conntrack evictions, that listen-queue pressure trips the backlog
# cap, and that a shard crash mid-churn recovers cleanly.
churn-smoke: build
	dune exec bin/newtos_sim.exe -- churn --duration 0.25 --rate 4000 \
	    --json --verify-continuous > _churn.json
	grep -q '"p99_us"' _churn.json
	grep -q '"p999_us"' _churn.json
	dune exec bin/newtos_sim.exe -- churn --scenario syn-flood \
	    --duration 0.25 --rate 4000 --flood-rate 15000 \
	    --conntrack-total 1024 --json --verify-continuous > _churn.json
	grep -q '"evicted_half_open":[1-9]' _churn.json
	grep -q '"evicted_established":0' _churn.json
	dune exec bin/newtos_sim.exe -- churn --scenario listen-pressure \
	    --duration 0.25 --json --verify-continuous > _churn.json
	grep -q '"listen_overflows":[1-9]' _churn.json
	dune exec bin/newtos_sim.exe -- churn --scenario crash-during-churn \
	    --duration 0.3 --rate 3000 --json --verify-continuous > _churn.json
	grep -q '"shard_restarts":1' _churn.json
	rm -f _churn.json

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
# failed operations, and the churn workload must peak below 200 MB of
# heap (pool slots and socket buffers are allocated on first use; when
# they were allocated up front it peaked at 1.5 GB).
perf-smoke: build
	python3 bench/perf_smoke.py

# Where a bulk run's host CPU goes: a SIGPROF call-stack sampler
# (ITIMER_PROF, 1 ms of process CPU per sample) around the split Host
# with five saturated 1 Gbps NICs. Prints the top inclusive frames and
# the top self frames (innermost OCaml frame per sample) as one JSON
# line.
profile: build
	dune exec bench/main.exe -- profile

clean:
	dune clean
