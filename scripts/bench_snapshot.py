#!/usr/bin/env python3
"""Records a perf snapshot of the micro benches as a committed baseline.

Runs the given google-benchmark binaries with --benchmark_format=json and writes
one consolidated snapshot:

    {"commit": "<git rev>", "date": "YYYY-MM-DD",
     "build_type": "Release", "cxx_flags": "-O3 -DNDEBUG", "chacha_lanes": 16,
     "montgomery_lanes": 8, "rows": {
        "<bench>/<row name>": {"ns_per_op": <real_time ns>, "ops": <iterations>},
        ...}}

Build stamp: build_type and cxx_flags are what each binary reports in its benchmark
JSON's context (deta_build_type, deta_cxx_flags; bench/bench_main.h), the same stamp
its telemetry JSON carries: the build type and the flags that compiled src/.
chacha_lanes is the width of the ChaCha20 core the CPU ran (deta_chacha_lanes; the
crypto.chacha20.lanes gauge of the telemetry JSON): 4, 8 or 16 blocks per step, which
moves every row over the keystream. montgomery_lanes is the width of the Montgomery
batch kernel (deta_montgomery_lanes; the crypto.montgomery.lanes gauge): 1 or 8 bases
per step, which moves every Paillier batch row. Timings from different builds or widths
do not compare, so a snapshot refuses binaries whose stamps differ, and
scripts/bench_gate.py --baseline refuses to compare snapshots of different build
types or widths.

Thread pinning: rows from multi-threaded benches encode their thread count in the
row name (e.g. "coords:4096/threads:2"); --threads keeps only rows matching that
count (default 1) so the committed baseline never mixes parallel speedups into a
single-thread trajectory. Rows without a threads column are always kept.

Usage:
    scripts/bench_snapshot.py --out BENCH_crypto.json \
        build/bench/micro_crypto build/bench/micro_aggregation \
        [--threads 1] [--filter REGEX] [--min-time SECS]

The output is diff-friendly (sorted keys, one row per line) so baseline updates
review as a table of numbers. Compare a fresh snapshot against the committed one
with scripts/bench_gate.py --baseline (see EXPERIMENTS.md).
"""

import argparse
import json
import re
import subprocess
import sys
from datetime import date


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_stamp(binary: str, report: dict) -> dict:
    """{"build_type", "cxx_flags", "chacha_lanes", "montgomery_lanes"} from the context
    of |binary|'s benchmark JSON."""
    context = report.get("context", {})
    keys = ("deta_build_type", "deta_cxx_flags", "deta_chacha_lanes",
            "deta_montgomery_lanes")
    if any(key not in context for key in keys):
        raise RuntimeError(f"{binary}: its benchmark context lacks one of {keys}; is it "
                           "a DETA_BENCH_MAIN binary?")
    return {"build_type": context["deta_build_type"],
            "cxx_flags": context["deta_cxx_flags"],
            "chacha_lanes": int(context["deta_chacha_lanes"]),
            "montgomery_lanes": int(context["deta_montgomery_lanes"])}


def run_bench(binary: str, bench_filter: str, min_time: float) -> dict:
    cmd = [binary, "--benchmark_format=json", f"--benchmark_min_time={min_time}"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    return json.loads(proc.stdout)


def to_ns(value: float, unit: str) -> float:
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
    if scale is None:
        raise RuntimeError(f"unknown time_unit {unit!r}")
    return value * scale


def keep_row(name: str, threads: int) -> bool:
    m = re.search(r"threads:(\d+)", name)
    return m is None or int(m.group(1)) == threads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binaries", nargs="+", help="benchmark binaries to run")
    parser.add_argument("--out", required=True, help="snapshot JSON to write")
    parser.add_argument("--threads", type=int, default=1,
                        help="keep only rows pinned to this thread count (default 1)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex forwarded to every binary")
    parser.add_argument("--min-time", type=float, default=0.5,
                        help="--benchmark_min_time per row (default 0.5s)")
    args = parser.parse_args()

    stamp = None
    rows = {}
    for binary in args.binaries:
        bench = binary.rsplit("/", 1)[-1]
        report = run_bench(binary, args.filter, args.min_time)
        binary_stamp = build_stamp(binary, report)
        if stamp is not None and binary_stamp != stamp:
            print(f"bench_snapshot: {binary} was built {binary_stamp}, an earlier "
                  f"binary {stamp}; one snapshot holds one build", file=sys.stderr)
            return 1
        stamp = binary_stamp
        for b in report.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue  # keep raw iterations rows only
            name = b["name"]
            if not keep_row(name, args.threads):
                continue
            rows[f"{bench}/{name}"] = {
                "ns_per_op": round(to_ns(b["real_time"], b["time_unit"]), 1),
                "ops": int(b["iterations"]),
            }
        print(f"bench_snapshot: {bench}: "
              f"{sum(1 for k in rows if k.startswith(bench + '/'))} rows")

    if not rows:
        print("bench_snapshot: no rows captured — wrong filter/threads?",
              file=sys.stderr)
        return 1

    snapshot = {
        "commit": git_commit(),
        "date": date.today().isoformat(),
        **stamp,
        "rows": {k: rows[k] for k in sorted(rows)},
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=1)
        f.write("\n")
    print(f"bench_snapshot: wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
