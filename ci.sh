#!/usr/bin/env bash
# Tier-1 gate (documented in README.md): the whole pipeline runs
# OFFLINE — the workspace has zero registry dependencies (hermetic-build
# policy, DESIGN.md), so a clean checkout must build, test, and lint
# with no network at all. Any `cargo` invocation that tries to reach
# crates.io is itself a regression.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Zero-copy TX regression gate: run the alloc/copy-count suite by name
# (it is also part of the workspace run above) so a counter drift — a
# reintroduced staging buffer or payload copy — fails with an explicit,
# greppable test name rather than somewhere in the workspace wall.
cargo test -q --offline -p ix-tcp --test zerocopy

# Zero-copy RX regression gate, same shape as the TX one: the identity
# suite pins rx_payload_copies/rx_ooo_copies at 0 and Bytes::ptr_eq
# ring-to-app aliasing; the reassembly suite differentially checks the
# mbuf-holding reorder path against a naive copying oracle.
cargo test -q --offline -p ix-tcp --test rx_zerocopy
cargo test -q --offline -p ix-tcp --test rx_reassembly

# Pre-stack filter / SYN-cookie regression gates: the listener-hardening
# suite pins the RFC 793 §3.4 no-listener RST fields and the half-open
# backlog bound; the cookie suite pins the stateless handshake — zero
# TCB-slab growth and zero held buffers under a 64k-SYN blast.
cargo test -q --offline -p ix-tcp --test syn_filter
cargo test -q --offline -p ix-tcp --test syn_cookies

# Flow-group migration property gate: the differential suite replays
# mid-transfer migrations against a never-migrated oracle and pins
# 0 resets / 0 payload divergence / 0 leaked mbufs, plus the golden
# RTO-rearm trace and the StackStats conservation checks.
cargo test -q --offline -p ix-tcp --test migration

# Bucket-index gate: the per-RSS-bucket intrusive lists on FlowMap must
# stay in lock-step with the probe table under randomized insert /
# remove / extract / absorb churn, and the migration order must be a
# function of insertion history alone, independent of table layout.
cargo test -q --offline -p ix-tcp --test bucket_index

# Batched-RX pipeline gates: the checksum property suite pins the
# widened u64 fold byte-identical to the RFC 1071 u16 reference; the
# rx_batch differential suite replays randomized interleavings through
# the staged pipeline against the per-packet oracle. The byte-identity
# grep pins the named batch_rx-off witness: with the knob off (the
# default every figure sweep runs under), input_batch is globally
# byte-identical to per-packet input().
cargo test -q --offline -p ix-net --test checksum_prop
cargo test --offline -p ix-tcp --test rx_batch 2>&1 | tee /tmp/ci_rxbatch.out
if ! grep -q "test batch_rx_off_is_byte_identical ... ok" /tmp/ci_rxbatch.out; then
    echo "ci: FAIL — batch_rx-off byte-identity witness did not pass" >&2
    exit 1
fi

# Elastic control-loop gate: spike absorption, bounded migration rate,
# hung-target backoff, admission-gate shed/lift, RCU filter republish
# on absorb, and the inert-controller byte-identical determinism pin.
cargo test -q --offline -p ix-core --test elastic

# Microbench smoke: quick mode trims iteration counts so this is a
# does-it-still-run check (plus BENCH_sim.json regeneration), not a
# statistically meaningful measurement. The greps assert the TX- and
# RX-path comparisons actually ran and produced their speedup sections.
IX_BENCH_QUICK=1 cargo bench -q -p ix-bench --offline | tee /tmp/ci_bench.out
if ! grep -q "^\[txpath\] retransmit_front:" /tmp/ci_bench.out; then
    echo "ci: FAIL — txpath microbench comparison did not run" >&2
    exit 1
fi
for wl in deliver_1460b ooo_drain kv_parse_inplace; do
    if ! grep -q "^\[rxpath\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — rxpath/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
for wl in classify_hit classify_miss syn_cookie_roundtrip; do
    if ! grep -q "^\[filter\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — filter/${wl} microbench did not run" >&2
        exit 1
    fi
done

# Bulk-migration microbench gate: the [migrate] comparisons must run,
# and the bulk extract path must hold a >= 5x speedup over the per-flow
# scan/sort/re-lookup baseline at 100k live flows. The factor gate
# reads extract_100k — its per-iteration cost calibrates to hundreds of
# iterations even in quick mode, so the ratio is stable; the heavier
# absorb points are presence-checked only.
for wl in extract_100k absorb_100k; do
    if ! grep -q "^\[migrate\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — migrate/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
speedup=$(sed -n 's/^\[migrate\] extract_100k:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "ci: FAIL — migrate/extract_100k bulk speedup ${speedup}x is below the 5x floor" >&2
    exit 1
fi
echo "ci: migrate/extract_100k bulk speedup ${speedup}x (floor 5x)"

# Batched-RX microbench gates: the [checksum] and [rxbatch] comparisons
# must run, the flow-grouped batch must hold >= 1.5x over per-frame
# input() (64-frame batches, 16 interleaved flows — the documented
# ACK-coalescing and single-probe-per-flow win), and the widened
# checksum fold must hold >= 2x over the u16 baseline at MTU size. Both
# per-iteration costs calibrate to plenty of iterations in quick mode,
# so the ratios are stable enough to gate.
for wl in verify_64b verify_1460b build_1460b; do
    if ! grep -q "^\[checksum\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — checksum/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
rxb=$(sed -n 's/^\[rxbatch\] group_probe:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$rxb" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "ci: FAIL — rxbatch/group_probe speedup ${rxb}x is below the 1.5x floor" >&2
    exit 1
fi
echo "ci: rxbatch/group_probe batched speedup ${rxb}x (floor 1.5x)"
cks=$(sed -n 's/^\[checksum\] verify_1460b:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$cks" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "ci: FAIL — checksum/verify_1460b speedup ${cks}x is below the 2x floor" >&2
    exit 1
fi
echo "ci: checksum/verify_1460b widened-fold speedup ${cks}x (floor 2x)"

# Steering-hash and quiescence-query microbench gates: the [rss] and
# [timerwheel] lines must print, and the 12-lookup table Toeplitz hash
# must hold >= 5x over the reference bit loop (same shape as the
# checksum gate; the per-hash cost calibrates to millions of iterations
# even in quick mode, so the ratio is stable).
if ! grep -q "^\[timerwheel\] next_deadline:" /tmp/ci_bench.out; then
    echo "ci: FAIL — timerwheel/next_deadline microbench did not run" >&2
    exit 1
fi
rss=$(sed -n 's/^\[rss\] tuple_hash:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$rss" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "ci: FAIL — rss/tuple_hash table speedup ${rss}x is below the 5x floor" >&2
    exit 1
fi
echo "ci: rss/tuple_hash table speedup ${rss}x (floor 5x)"

# Wall-clock budget: the quick fig5 sweep must stay interactive. The
# ceiling is generous (slow shared CI hosts), but a scheduler or pool
# regression that reintroduces the seed's minutes-long runs trips it.
fig5_budget_s=120
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig5_memcached > /dev/null
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig5 sweep took ${elapsed_s}s (budget ${fig5_budget_s}s)"
if [ "$elapsed_s" -gt "$fig5_budget_s" ]; then
    echo "ci: FAIL — quick fig5 exceeded its wall-clock budget" >&2
    exit 1
fi

# Round-trip smoke: the quick fig3b point set runs the mutilate-style
# closed-loop client against the echo server through the mbuf-holding
# RX delivery path. The budget catches a payload copy (or a pool leak
# forcing window collapse) creeping back into in-order delivery.
fig3b_budget_s=120
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig3b_roundtrips > /dev/null
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig3b sweep took ${elapsed_s}s (budget ${fig3b_budget_s}s)"
if [ "$elapsed_s" -gt "$fig3b_budget_s" ]; then
    echo "ci: FAIL — quick fig3b exceeded its wall-clock budget" >&2
    exit 1
fi

# Connection-scale smoke: the quick fig4 point set (100 and 10k
# connections, all four system/port columns) exercises the flow-table
# demux, TCB slab, and rotating-client ready ring end to end. The
# budget catches an accidental return to per-message O(conns) scans.
fig4_budget_s=120
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig4_connscale > /dev/null
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig4 sweep took ${elapsed_s}s (budget ${fig4_budget_s}s)"
if [ "$elapsed_s" -gt "$fig4_budget_s" ]; then
    echo "ci: FAIL — quick fig4 exceeded its wall-clock budget" >&2
    exit 1
fi

# Batch-bound smoke: the quick fig6 point set drives the adaptive-batch
# sweep through the zero-copy TX path end to end. The budget catches a
# per-segment allocation creeping back into the hot loop (the seed's
# Vec-chain pipeline put this sweep well past the ceiling).
fig6_budget_s=120
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig6_batchbound > /dev/null
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig6 sweep took ${elapsed_s}s (budget ${fig6_budget_s}s)"
if [ "$elapsed_s" -gt "$fig6_budget_s" ]; then
    echo "ci: FAIL — quick fig6 exceeded its wall-clock budget" >&2
    exit 1
fi

# Faulted-sweep smoke: the quick fig7 point set (baseline, 1% loss,
# queue hang + watchdog) must run and recover within its own budget —
# a fault-plane or watchdog regression shows up as a stall (nonzero
# exit is not expected, but the wall-clock catches pathological RTO
# storms that multiply the event count).
fig7_budget_s=60
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig7_faults | tee /tmp/ci_fig7.out | tail -n +4
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig7 sweep took ${elapsed_s}s (budget ${fig7_budget_s}s)"
if [ "$elapsed_s" -gt "$fig7_budget_s" ]; then
    echo "ci: FAIL — quick fig7 exceeded its wall-clock budget" >&2
    exit 1
fi
if ! grep -q "no permanently stalled connections" /tmp/ci_fig7.out; then
    echo "ci: FAIL — quick fig7 reported a stalled scenario" >&2
    exit 1
fi

# Adversarial-sweep smoke: the quick fig8 point set (no-attack baseline
# plus a 4x SYN flood with and without the pre-stack filter) runs the
# attack generator, the NIC filter stage, and the cookie handshake end
# to end; the binary itself asserts the dropped-frames-allocate-nothing
# invariant, so the gate here is budget-only (mirroring fig4/fig6).
fig8_budget_s=120
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig8_adversarial > /dev/null
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig8 sweep took ${elapsed_s}s (budget ${fig8_budget_s}s)"
if [ "$elapsed_s" -gt "$fig8_budget_s" ]; then
    echo "ci: FAIL — quick fig8 exceeded its wall-clock budget" >&2
    exit 1
fi

# Elastic-controller smoke: the quick fig9 point set runs the MMPP
# spike against static and elastic core allocation. The binary prints
# two headline lines the greps pin: the controller-off reruns must be
# bit-identical (the elastic machinery contributes nothing when
# disabled), and the elastic run must absorb the spike under SLA,
# consolidate violation-free, and beat the static core-time.
fig9_budget_s=60
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig9_elastic | tee /tmp/ci_fig9.out | tail -n +4
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig9 sweep took ${elapsed_s}s (budget ${fig9_budget_s}s)"
if [ "$elapsed_s" -gt "$fig9_budget_s" ]; then
    echo "ci: FAIL — quick fig9 exceeded its wall-clock budget" >&2
    exit 1
fi
if ! grep -q "controller-off runs are byte-identical" /tmp/ci_fig9.out; then
    echo "ci: FAIL — quick fig9 controller-off determinism broke" >&2
    exit 1
fi
if ! grep -q "elastic run absorbed the spike" /tmp/ci_fig9.out; then
    echo "ci: FAIL — quick fig9 elastic run missed an acceptance gate" >&2
    exit 1
fi

# Bulk-migration smoke: the quick fig9-scale point set (1k and 10k
# connections) moves whole live shards between cores under echo load
# through the bucket-index extract + batch timer-splice absorb path.
# The headline grep pins flat per-flow scaling (largest point within 2x
# of the smallest), every ping-pong moving the full shard, zero resets,
# and the load stream surviving the burst.
fig9s_budget_s=90
start_s=$SECONDS
IX_SWEEP_QUICK=1 ./target/release/fig9_scale | tee /tmp/ci_fig9s.out | tail -n +4
elapsed_s=$(( SECONDS - start_s ))
echo "ci: quick fig9-scale sweep took ${elapsed_s}s (budget ${fig9s_budget_s}s)"
if [ "$elapsed_s" -gt "$fig9s_budget_s" ]; then
    echo "ci: FAIL — quick fig9-scale exceeded its wall-clock budget" >&2
    exit 1
fi
if ! grep -q "flat migration scaling:" /tmp/ci_fig9s.out; then
    echo "ci: FAIL — quick fig9-scale missed an acceptance gate" >&2
    exit 1
fi

# Benchmark smoke: one short run of every perfbench workload. Only the
# exit status is checked; the benchmark's own output checks (in-sequence
# kv replies, exact echo and NetPIPE bytes, bit-identical repetitions)
# fail the run, so they guard every hot-path edit.
start_s=$SECONDS
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 2 --seconds 1 --trace 0 > /dev/null
echo "ci: perfbench smoke (all workloads, 1 s) took $(( SECONDS - start_s ))s"

echo "ci: all green"
