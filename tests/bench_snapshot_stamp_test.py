#!/usr/bin/env python3
"""Checks that a bench snapshot names the build that compiled the library.

    tests/bench_snapshot_stamp_test.py <micro bench binary>

Snapshots one tiny row of the binary with scripts/bench_snapshot.py and runs the same
row again with --telemetry-out. Fails unless the snapshot's build_type and cxx_flags
equal the telemetry JSON's "build" object, and unless an optimized build
(RelWithDebInfo or Release) names -O3, the level src/CMakeLists.txt compiles src/ at.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = "BM_Sha256/64$"


def main() -> int:
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = os.path.join(tmp, "snapshot.json")
        telemetry_path = os.path.join(tmp, "telemetry.json")
        subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "bench_snapshot.py"),
                        "--out", snapshot_path, "--filter", ROW, "--min-time", "0.01",
                        binary], check=True, stdout=subprocess.DEVNULL)
        subprocess.run([binary, f"--benchmark_filter={ROW}", "--benchmark_min_time=0.01",
                        f"--telemetry-out={telemetry_path}"], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(snapshot_path, encoding="utf-8") as f:
            snapshot = json.load(f)
        with open(telemetry_path, encoding="utf-8") as f:
            build = json.load(f)["build"]
    stamp = (snapshot["build_type"], snapshot["cxx_flags"])
    print(f"snapshot stamp {stamp}, telemetry stamp {(build['type'], build['cxx_flags'])}")
    if stamp != (build["type"], build["cxx_flags"]):
        print("FAIL: the snapshot and the telemetry of one binary name different builds")
        return 1
    if stamp[0] in ("RelWithDebInfo", "Release") and "-O3" not in stamp[1].split():
        print(f"FAIL: a {stamp[0]} build compiled src/ without -O3")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
