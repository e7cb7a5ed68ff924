#!/usr/bin/env bash
# Canonical tier-1 CI entry point.
#
# Everything here runs fully offline: the workspace has no registry
# dependencies (see DESIGN.md, "Hermetic builds"), so a clean checkout
# with only the Rust toolchain passes this script with zero network
# access.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
# Configuration at the edge: the library code of sag-core, sag-lp,
# sag-radio, sag-sim and sag-bench reads no environment. Callers pass
# what they want in config values; only the binaries under src/bin/ may
# read a variable and hand it down.
echo "==> no env::var in the library code of crates/{core,lp,radio,sim,bench}/src"
if grep -rn 'env::var' crates/core/src crates/lp/src crates/radio/src crates/sim/src crates/bench/src | grep -v '/src/bin/'; then
    echo "library code reads the environment; read it in a binary and pass it in a config"
    exit 1
fi
# Rustdoc gate: broken or private intra-doc links fail the build, so a
# deleted item cannot leave a dangling link behind.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
run cargo build --release --offline --workspace
run cargo test -q --offline

# Chaos soak: re-run the fault-injection property suite at an elevated
# case count. Failures print a SAG_PROP_SEED replay line.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test chaos_pipeline -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test chaos_pipeline -q --offline

# Ledger parity soak: the incremental-vs-brute SNR contract at an
# elevated case count (tentpole invariant of the interference ledger).
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test ledger_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test ledger_parity -q --offline

# LP parity soak: the sparse revised simplex against the dense tableau
# referee (LpProblem::solve_dense), warm-vs-cold B&B incumbents,
# kept-session re-solves under random bound changes (vs cold solves and
# the referee,
# bit-identical unchanged re-solves, LU skew mid-session), refactor
# cadence bit-stability, and CscMatrix construction fuzz.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test lp_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test lp_parity -q --offline

# ILPQC parity soak: the kept-LP-session branch and bound must return
# the same outcomes (relay bits, assignment, node count, optimality) as
# the seed solver in sag_core::reference on seeded IAC/GAC instances at
# the Fig. 3(a)-(e) shapes and truncated node limits. Release build:
# the referee re-lowers an LP per node and is slow in debug.
echo "==> SAG_PROP_CASES=150 cargo test --release -p sag-integration --test ilpqc_parity -q --offline"
SAG_PROP_CASES=150 cargo test --release -p sag-integration --test ilpqc_parity -q --offline

# Zone Partition parity soak: the grid + union-find partition must
# return the same zones as the all-pairs referee in sag_core::reference
# on seeded uniform and clustered fields, snapped grids with pairs at
# exactly d_eff == d_max, coincident subscribers, boundary d_max values
# and the churn hotspot layout.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test zone_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test zone_parity -q --offline

# Churn soak: arbitrary seeded event streams must end in a typed error
# or an audit-clean, feasible, bounded-degradation placement; includes
# the starved-budget, worker-panic and ledger-desync chaos arms.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test churn_pipeline -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test churn_pipeline -q --offline

# Executor soaks: the shared fan-out executor (sag_obs::par_indexed)
# under the zone engine and the batched sweep. Reports and collected
# metrics must be byte-identical at threads 1 vs N, and batched sweeps
# must equal the per-cell reference under any schedule.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test par_determinism -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test par_determinism -q --offline
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test sweep_determinism -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test sweep_determinism -q --offline

# Local-search parity soak: SAMC's incremental swap evaluation must
# return the same hitting sets, index for index, as the full-recompute
# reference search (paper-density fields and degenerate snapped grids,
# swap sizes 1-4).
echo "==> SAG_PROP_CASES=150 cargo test -p sag-hitting --test local_search_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-hitting --test local_search_parity -q --offline

# Sweep smoke: a real figure sweep (the cache-heavy Fig. 3(e) shape)
# driven end to end through the release repro binary and the batched
# engine. Fig. 3(e) reaches its solvers through solve_ilpqc and samc
# directly, never through SolverBuilder; the arm checks that the sweep
# runs to completion.
echo "==> cargo run --release --offline -p sag-sim --bin repro -- fig3e --runs 1"
cargo run --release --offline -p sag-sim --bin repro -- fig3e --runs 1 > /dev/null

# Benchmarks. Each bench_* binary asserts its parity or contract
# checks before any timing, then writes BENCH_*.json through the shared
# sag_bench::Artefact writer: measured fields plus a `gates` list
# (name, value, floor or ceiling, "enforced" or "skipped (reason)").
# The file is written before the run fails on an enforced gate that
# missed. Gate values are named constants in each binary.

# SNR engine: brute vs ledger on the 100-subscriber probe workload.
# Gate: bench_snr MIN_SPEEDUP (>=5x).
run cargo run --release --offline -p sag-bench --bin bench_snr -- --out BENCH_snr.json

# Hitting set: the full-recompute reference local search vs the
# incremental swap evaluation on seeded Fig. 4/5 fields (one zone each
# at the paper's N_max); identical hitting sets on every instance.
# Gate: bench_hitting MIN_SPEEDUP (>=10x aggregate).
run cargo run --release --offline -p sag-bench --bin bench_hitting -- --out BENCH_hitting.json

# Observability overhead: the disabled instrumentation path vs the
# hand-composed uninstrumented pipeline (parity asserted first).
# Gate: bench_obs MAX_OVERHEAD (disabled path <=1.02x).
run cargo run --release --offline -p sag-bench --bin bench_obs -- --out BENCH_obs.json

# Zone-parallel engine: byte-identical deployments at threads=1 vs
# THREADS=4 (always asserted) on the 8-zone probe. Gate: bench_par
# MIN_SPEEDUP (>=2x lower tier); it self-skips on hosts with fewer than
# 4 hardware threads, which cannot show the wall-clock speedup.
run cargo run --release --offline -p sag-bench --bin bench_par -- --out BENCH_par.json

# LP core: dense tableau vs sparse revised simplex on the 96-zone cover
# probe, cold vs warm-started B&B node throughput, and the seed ILPQC
# (sag_core::reference) vs the kept-LP-session ILPQC on Fig. 3(a)-shaped
# GAC instances; parity is asserted before any timing. Gates: bench_lp
# MIN_SPEEDUP (>=3x), MIN_WARM_SPEEDUP (>=1.5x), MIN_ILPQC_SPEEDUP (>=4x).
run cargo run --release --offline -p sag-bench --bin bench_lp -- --out BENCH_lp.json

# Churn repair: incremental dirty-zone repair vs a from-scratch SAMC per
# event on the 16-zone clustered probe; a mixed seeded trace must replay
# audit-clean first. Gates: bench_churn MIN_SPEEDUP (>=5x median repair
# speedup; self-skips below the per-event timing floor) and MAX_P99_NS
# (p99 repair latency <=500us).
run cargo run --release --offline -p sag-bench --bin bench_churn -- --out BENCH_churn.json

# Solver backends: adaptive per-zone selection vs an all-exact lower
# tier on the 16-zone dense clustered probe; both arms pass the report
# audit and adaptive must route zones away from the exact backend.
# Gate: bench_backends MIN_SPEEDUP (>=1.5x; self-skips below the timing
# floor).
run cargo run --release --offline -p sag-bench --bin bench_backends -- --out BENCH_backends.json

# Batched sweep engine: the fingerprint-cached engine vs the per-cell
# path on the Fig. 3(e)-shaped probe; byte-identical CellStats at
# threads=1/N, cold/warm cache and a shuffled queue first. The speedup
# is cache-driven, so it holds at any hardware thread count. Gate:
# bench_sweep MIN_SPEEDUP (>=4x; self-skips only when the reference
# sweep is too fast for the timer).
run cargo run --release --offline -p sag-bench --bin bench_sweep -- --out BENCH_sweep.json

# Churn chaos smoke: a short seeded trace through every chaos arm
# (burst, boundary hop, worker panic, ledger desync); every arm must
# score a full pass on the typed-error-or-audit-clean contract.
echo "==> cargo run --release --offline -p sag-sim --bin repro -- churn_chaos --fast"
churn_chaos_out=$(cargo run --release --offline -p sag-sim --bin repro -- churn_chaos --fast)
echo "${churn_chaos_out}"
echo "${churn_chaos_out}" | awk '$1 ~ /^[0-9]+$/ && $2 != "1.00" {
    print "churn chaos arm " $1 " broke the contract (pass=" $2 ")"; bad = 1
} END { exit bad }'

# Forensics chaos arm: every typed failure class (worker panic, ledger
# desync, budget exhaustion, portfolio loser panic/hang, churn
# deferral) must emit exactly one parseable post-mortem dump frame,
# and the analyzer must reconstruct each capture into a single span
# tree at 1, 2 and 4 threads. Run in release — the same optimized
# shape a production crash capture would have (the suite arms the
# flight recorder itself).
echo "==> cargo test --release -p sag-integration --test forensics_pipeline -q --offline"
cargo test --release -p sag-integration --test forensics_pipeline -q --offline

# JSONL sink smoke: a real repro run with SAG_OBS_JSON set must emit a
# capture in which every line parses, every stage has a span, the
# run_end trailer carries the dropped_events/ring_overflow loss
# accounting, and the solver work counters are present. The same
# capture must then feed the trace analyzer end to end.
echo "==> SAG_OBS_JSON=obs_smoke.jsonl cargo run --release --offline -p sag-sim --bin repro -- fig7a --runs 1"
SAG_OBS_JSON=obs_smoke.jsonl SAG_OBS_RING=256 cargo run --release --offline -p sag-sim --bin repro -- fig7a --runs 1 > /dev/null
run cargo run --release --offline -p sag-bench --bin bench_obs -- --check-jsonl obs_smoke.jsonl
run cargo run --release --offline -p sag-sim --bin repro -- trace obs_smoke.jsonl
rm -f obs_smoke.jsonl

echo "==> tier-1 CI green"
