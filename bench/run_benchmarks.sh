#!/usr/bin/env bash
# Builds bench_micro in Release and regenerates the benchmark-regression
# baseline BENCH_micro.json at the repo root — or, with --check, measures
# into a scratch file and diffs medians against the committed baseline.
#
# Usage: bench/run_benchmarks.sh [--lint] [--check] [extra --benchmark_* flags...]
#
# --lint runs the static-analysis gate (fluxfp-lint including the
# concurrency rules guarded-member / lock-order / atomics-policy, header
# hygiene, clang-tidy when installed) first and refuses to measure a tree
# that fails it: numbers from a tree that violates the determinism or
# locking contracts are not comparable to the committed baseline.
#
# --check first runs the service-accuracy gate: exp_service_accuracy writes
# a fresh ledger and bench/check_accuracy.py compares it with the committed
# BENCH_accuracy.json; a row whose mean or p90 error rose past its bound
# (set from the seed spread) exits 4, before any timing is taken. The
# ledger measures error, not time, so this half needs no pinned hardware.
# Regenerate it deliberately, after a change meant to move accuracy:
#   build-bench/bench/exp_service_accuracy --out BENCH_accuracy.json
#
# --check then runs the perf-regression gate: a fresh run is compared
# per-benchmark (median real_time) against the committed BENCH_micro.json;
# any benchmark slower than the baseline median by more than the tolerance
# (FLUXFP_BENCH_TOLERANCE, default 25% — sized for the reference
# container's host-contention noise) exits 3. Benchmarks present on only
# one side (renames, additions) are listed, not failed. The comparison
# refuses to judge runs from a different CPU model or SIMD backend than
# the baseline records — regenerate the baseline on the new machine
# instead.
#
# Regenerating the baseline (after an intentional perf change, a new
# benchmark, or a machine change):
#   bench/run_benchmarks.sh          # rewrites BENCH_micro.json in place
#   git add BENCH_micro.json         # commit it with the change
# then re-run `bench/run_benchmarks.sh --check` once to confirm the fresh
# baseline passes its own gate.
#
# The baseline is machine-specific: compare candidate runs only against a
# baseline produced on the same hardware (google-benchmark's
# tools/compare.py does this well). The committed baseline records the
# reference machine's numbers so regressions in the *shape* (e.g. BM_SmcRound
# scaling across thread counts) are visible in review.
#
# BM_SmcRound@1/2/4/8 and BM_StreamEpoch@1/2/4/8 sweep worker counts; on
# the single-core reference container their wall-clock is flat across the
# sweep (num_cpus=1 in the JSON) — the scaling shape only shows on
# multicore hardware. Per-session results are bit-identical either way.
#
# The reference container's run-to-run noise (host contention) can exceed
# the 2% acceptance bars, so the baseline records *medians over
# interleaved repetitions*: repetitions are randomly interleaved across
# benchmarks (--benchmark_enable_random_interleaving) so slow host phases
# hit every benchmark equally instead of biasing whichever ran during
# them, and the median discards the outlier repetitions entirely.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build-bench}"

run_lint=0
run_check=0
while [[ "${1:-}" == "--lint" || "${1:-}" == "--check" ]]; do
  if [[ "$1" == "--lint" ]]; then
    run_lint=1
  else
    run_check=1
  fi
  shift
done

out_json="$repo_root/BENCH_micro.json"
if [[ "$run_check" == 1 ]]; then
  if [[ ! -f "$repo_root/BENCH_micro.json" ]]; then
    echo "run_benchmarks.sh: --check needs a committed BENCH_micro.json" >&2
    exit 1
  fi
  out_json="$(mktemp /tmp/fluxfp-bench-XXXXXX.json)"
fi

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=Release \
  -DFLUXFP_BUILD_TESTS=OFF \
  -DFLUXFP_BUILD_EXAMPLES=OFF

if [[ "$run_lint" == 1 ]]; then
  echo "== lint preflight =="
  if ! cmake --build "$build_dir" --target lint -j "$(nproc)"; then
    echo "run_benchmarks.sh: lint gate failed; refusing to measure a tree" \
         "that violates the project invariants" >&2
    exit 1
  fi
fi

cmake --build "$build_dir" --target bench_micro -j "$(nproc)"

if [[ "$run_check" == 1 ]]; then
  echo "== service-accuracy gate: fresh ledger vs committed BENCH_accuracy.json =="
  cmake --build "$build_dir" --target exp_service_accuracy -j "$(nproc)"
  fresh_accuracy="$(mktemp /tmp/fluxfp-accuracy-XXXXXX.json)"
  "$build_dir/bench/exp_service_accuracy" --out "$fresh_accuracy"
  if ! python3 "$repo_root/bench/check_accuracy.py" \
      "$repo_root/BENCH_accuracy.json" "$fresh_accuracy"; then
    echo "run_benchmarks.sh: service-accuracy gate failed" >&2
    exit 4
  fi
fi

"$build_dir/bench/bench_micro" \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_enable_random_interleaving \
  --benchmark_report_aggregates_only=true \
  "$@"

echo "Wrote $out_json"

if [[ "$run_check" == 1 ]]; then
  echo "== perf-regression gate: fresh medians vs committed baseline =="
  python3 - "$repo_root/BENCH_micro.json" "$out_json" \
      "${FLUXFP_BENCH_TOLERANCE:-25}" <<'EOF'
import json
import sys

baseline_path, fresh_path, tolerance_pct = sys.argv[1:4]
tolerance = float(tolerance_pct) / 100.0

def load(path):
    with open(path) as f:
        report = json.load(f)
    medians = {}
    for b in report.get("benchmarks", []):
        name = b["name"]
        if name.endswith("_median") or name.endswith("/real_time_median"):
            key = name.rsplit("_median", 1)[0]
            key = key[: -len("/real_time")] if key.endswith("/real_time") else key
            medians[key] = float(b["real_time"])
    return report.get("context", {}), medians

base_ctx, base = load(baseline_path)
fresh_ctx, fresh = load(fresh_path)

# Comparability preflight: numbers from a different machine or SIMD
# backend are not regressions, they are a different baseline.
for key in ("fluxfp_simd_backend", "fluxfp_cpu_model"):
    b, f = base_ctx.get(key), fresh_ctx.get(key)
    if b is not None and f is not None and b != f:
        print(f"INCOMPARABLE: {key} baseline={b!r} fresh={f!r}; "
              "regenerate the baseline on this machine/build instead")
        sys.exit(2)

failures = []
for name in sorted(base):
    if name not in fresh:
        print(f"  baseline-only (renamed/removed?): {name}")
        continue
    ratio = fresh[name] / base[name] if base[name] > 0 else 1.0
    status = "ok"
    if ratio > 1.0 + tolerance:
        status = "REGRESSION"
        failures.append(name)
    print(f"  {status:>10}  {name}: {base[name]:.0f} -> {fresh[name]:.0f} ns"
          f"  ({(ratio - 1.0) * 100.0:+.1f}%)")
for name in sorted(set(fresh) - set(base)):
    print(f"  fresh-only (new benchmark?): {name}")

if failures:
    print(f"perf gate FAILED: {len(failures)} benchmark(s) regressed more "
          f"than {tolerance_pct}% over the committed baseline")
    sys.exit(3)
print(f"perf gate passed (tolerance {tolerance_pct}%)")
EOF
fi

# Surface the observability-overhead delta recorded in the baseline:
# BM_ObsOverhead/0 (obs disabled) vs BM_ObsOverhead/1 (obs recording) run
# the BM_StreamEpoch workload in the same binary, so their ratio is the
# instrumentation cost on the hottest path. The acceptance bar is < 2%.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
times = {
    b["name"]: b["real_time"]
    for b in report.get("benchmarks", [])
    if b["name"].startswith("BM_ObsOverhead")
}
off = times.get("BM_ObsOverhead/0/real_time_median",
                times.get("BM_ObsOverhead/0/real_time"))
on = times.get("BM_ObsOverhead/1/real_time_median",
               times.get("BM_ObsOverhead/1/real_time"))
if off and on:
    delta = 100.0 * (on - off) / off
    print(f"obs overhead: off {off:.0f}ns  on {on:.0f}ns  delta {delta:+.2f}%")
else:
    print("obs overhead: BM_ObsOverhead not in this run (FLUXFP_OBS=OFF?)")
EOF
fi
