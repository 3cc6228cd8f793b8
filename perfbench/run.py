#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the fluxfp tracking service and the
offline attack (see perfbench/README.md for the design).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare A.json B.json

A run builds the perfbench binary (Release, into .bench_build/), runs one
workload, prints its metric lines and an `env` line, saves everything to
.bench_results/, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status: 0 ok, 1 a correctness check failed, 2 build or usage error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("ingest_max", "ingest_paced_reads", "offline_localize")
# Environment keys two results must share to be compared at all.
COMPARABLE_KEYS = ("nproc", "cpu_model", "simd_backend", "fluxfp_obs",
                   "build_type", "bench_digest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then brings the binary up to date. Build output goes
    to stderr so the last stdout line stays the result."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def tree_digest(paths):
    h = hashlib.sha256()
    for base in paths:
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and
            "__pycache__" not in p.parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment():
    env = json.loads(subprocess.run([str(BINARY), "--env"], check=True,
                                    capture_output=True, text=True).stdout)
    env["nproc"] = nproc()
    env["cpu_model"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env["commit"] = "unknown"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            env["commit"] = git.stdout.strip()
    except OSError:
        pass
    env["source_digest"] = tree_digest(
        [ROOT / "src", ROOT / "CMakeLists.txt", ROOT / "cmake"])
    env["bench_digest"] = tree_digest(
        [BENCH_DIR / "src", BENCH_DIR / "CMakeLists.txt", BENCH_DIR / "run.py"])
    return env


def run_binary(args):
    BUILD_DIR.mkdir(exist_ok=True)
    proc = subprocess.run(
        [str(BINARY), *args, "--socket-dir", str(BUILD_DIR.relative_to(ROOT))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return proc.returncode, lines, result


def cmd_run(opts):
    if not build():
        log("build failed")
        return 2
    env = environment()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, lines, result = run_binary(args)
    for line in lines:
        print(line)
    if result is None:
        log(f"perfbench printed no result (exit {code})")
        return code or 2
    print("env " + json.dumps(env, sort_keys=True))
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace, "env": env,
        "inputs": next((l for l in lines if l.startswith("inputs ")), ""),
        "lines": lines, "result": result,
    }
    name = (f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return code


def cmd_compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    for key in COMPARABLE_KEYS:
        if a["env"].get(key) != b["env"].get(key):
            print(f"INCOMPARABLE: {key} differs: {a['env'].get(key)!r} vs "
                  f"{b['env'].get(key)!r}; rerun both on one machine and "
                  "build with one benchmark")
            return 2
    for key in ("workload", "trace", "seconds"):
        if a[key] != b[key]:
            print(f"INCOMPARABLE: {key} differs: {a[key]!r} vs {b[key]!r}")
            return 2
    digest = lambda r: r["inputs"].split(" ")[2] if r["inputs"] else ""
    if digest(a) != digest(b):
        print(f"INCOMPARABLE: inputs differ ({digest(a)} vs {digest(b)})")
        return 2
    print(f"{a['workload']} trace={a['trace']}: {a['env']['commit'][:12]} -> "
          f"{b['env']['commit'][:12]}")
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            print(f"  {name}: only in {a_path}")
            continue
        change = (other["value"] / m["value"] - 1.0) * 100 if m["value"] else 0
        print(f"  {name:36s} {m['value']:14.6g} -> {other['value']:14.6g} "
              f"{m['unit']:6s} ({change:+.1f}%)")
    return 0


def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_selftest():
    """Runs every workload at a tiny size, traced and untraced; checks that
    every contract metric is printed with its unit, and that a corrupted
    reference estimate trips the correctness check."""
    if not build():
        log("build failed")
        return 2
    contract = load_contract()
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in contract[key]}
            code, lines, result = run_binary(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{tag}: exit {code}, result {result}")
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"contract {sorted(want.items())}")
            printed = {l.split()[1]: l.split()[3] for l in lines
                       if l.startswith("metric ")}
            for name, unit in want.items():
                if printed.get(name) != unit:
                    failures.append(f"{tag}: no `metric {name} ... {unit}` "
                                    "line")
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{tag}: attempted/failed {result}")
            print(f"selftest: {tag}: {len(got)} metrics ok", flush=True)
    code, _, result = run_binary(
        ["--workload", "ingest_max", "--seed", "7", "--seconds", "1",
         "--trace", "0", "--tiny", "--corrupt-reference"])
    if code == 0 or result is None or result["correct"] or \
            result["failed"] < 1:
        failures.append(f"corrupted reference was not caught: exit {code}, "
                        f"result {result}")
    else:
        print("selftest: corrupted reference estimate trips the check",
              flush=True)
    for f in failures:
        print(f"selftest FAILED: {f}")
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "selftest":
        return cmd_selftest()
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return cmd_compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
