#!/usr/bin/env python3
"""Host-clock benchmark runner.

Run from the root of a source checkout:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It configures and builds hostbench/ (the library from src/ plus the
benchmark) in .bench_build/hostbench, runs the benchmark's arithmetic
test, trains any missing model into .bench_build/model_cache (reported
separately, never inside setup_s), then runs one measurement. The last
line of standard output is the result JSON; set-up output goes to
standard error. Workloads: repro-sweep, tune-plan, serve-closed (see
hostbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "hostbench"
CACHE_DIR = BUILD / "model_cache"
OUT_DIR = BUILD / "results"
FILL_RECORD = CACHE_DIR / "fill.json"
WORKLOADS = ("repro-sweep", "tune-plan", "serve-closed")
# A measurement takes well under a minute; this keeps a hung run inside
# the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[hostbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "hostbench", "hostbench_arith_test"],
                   check=True, stdout=sys.stderr)
    subprocess.run([str(BUILD_DIR / "hostbench_arith_test")], check=True,
                   stdout=sys.stderr)


def fill_cache():
    """Train missing models once per checkout; report how long it took."""
    out = subprocess.run([str(BUILD_DIR / "hostbench"), "--fill-cache",
                          "--cache-dir", str(CACHE_DIR)],
                         check=True, capture_output=True, text=True)
    filled = json.loads(out.stdout.strip().splitlines()[-1])
    if filled["trained"] or not FILL_RECORD.exists():
        FILL_RECORD.write_text(json.dumps(filled) + "\n")
        return f"filled in {filled['fill_cache_s']:.1f} s by this run"
    first = json.loads(FILL_RECORD.read_text())["fill_cache_s"]
    return f"warm (filled in {first:.1f} s by an earlier run)"


def source_hash():
    """SHA-256 over the library and benchmark sources, path and bytes."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no library sources under {ROOT / 'src'}; run from a checkout")
        return 2
    try:
        build()
        cache = fill_cache()
    except (OSError, subprocess.CalledProcessError, ValueError,
            KeyError) as e:
        log(f"set-up failed: {e}")
        return 1
    print(f"model cache: {cache}")

    cmd = [str(BUILD_DIR / "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--cache-dir", str(CACHE_DIR),
           "--out-dir", str(OUT_DIR), "--refs-dir", str(HERE / "refs"),
           "--commit", commit(), "--source-hash", source_hash()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
