#!/usr/bin/env python3
"""Checks that a bench snapshot names the build that compiled the library.

    tests/bench_snapshot_stamp_test.py <micro bench binary>

Snapshots one tiny row of the binary with scripts/bench_snapshot.py and runs the same
row again with --telemetry-out. Fails unless the snapshot's build_type and cxx_flags
equal the telemetry JSON's "build" object, unless an optimized build (RelWithDebInfo
or Release) names -O3, the level src/CMakeLists.txt compiles src/ at, and unless the
snapshot's chacha_lanes and montgomery_lanes are the telemetry's crypto.chacha20.lanes
and crypto.montgomery.lanes gauges. Then gates the snapshot against itself with
scripts/bench_gate.py --baseline, which must pass, and against copies stamped with
another width of either kernel, which must be refused.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = "BM_Sha256/64$"


def gate(baseline: str, fresh: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "bench_gate.py"),
                           "--baseline", baseline, fresh], capture_output=True, text=True)


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
            telemetry = json.load(f)
        build = telemetry["build"]
        gate_ok = gate(snapshot_path, snapshot_path)
        other_widths = {"chacha_lanes": 4 if snapshot["chacha_lanes"] != 4 else 8,
                        "montgomery_lanes": 1 if snapshot["montgomery_lanes"] != 1 else 8}
        gate_other_width = {}
        for key, width in other_widths.items():
            other_width_path = os.path.join(tmp, f"other_{key}.json")
            with open(other_width_path, "w", encoding="utf-8") as f:
                json.dump({**snapshot, key: width}, f)
            gate_other_width[key] = gate(other_width_path, snapshot_path)
    stamp = (snapshot["build_type"], snapshot["cxx_flags"])
    print(f"snapshot stamp {stamp}, telemetry stamp {(build['type'], build['cxx_flags'])}")
    if stamp != (build["type"], build["cxx_flags"]):
        print("FAIL: the snapshot and the telemetry of one binary name different builds")
        return 1
    if stamp[0] in ("RelWithDebInfo", "Release") and "-O3" not in stamp[1].split():
        print(f"FAIL: a {stamp[0]} build compiled src/ without -O3")
        return 1
    for key, gauge, widths in (("chacha_lanes", "crypto.chacha20.lanes", (4, 8, 16)),
                               ("montgomery_lanes", "crypto.montgomery.lanes", (1, 8))):
        lanes = telemetry["gauges"].get(gauge)
        print(f"snapshot {key} {snapshot[key]}, telemetry gauge {lanes}")
        if snapshot[key] not in widths or snapshot[key] != lanes:
            print(f"FAIL: the snapshot and the telemetry of one binary name different {key}")
            return 1
    if gate_ok.returncode != 0:
        print(f"FAIL: a snapshot does not gate against itself:\n{gate_ok.stderr}")
        return 1
    for key, refused in gate_other_width.items():
        if refused.returncode == 0 or key not in refused.stderr:
            print(f"FAIL: bench_gate.py compared snapshots of different {key}")
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
