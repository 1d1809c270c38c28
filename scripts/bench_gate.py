#!/usr/bin/env python3
"""CI gate over bench artifacts: telemetry counters and perf baselines.

Counter mode (default): fails (exit 1) when any must-be-zero counter is nonzero
in any of the given telemetry snapshots (common/telemetry.h::ToJson output). The
defaults encode the fault-free contract of the protocol fabric: on a run with no
FaultPlan installed, nothing may be dropped, no message or TCP frame may fail to
parse, no secure-channel frame may be rejected, no retry budget may be exhausted,
and nothing may log at WARNING or above.

Usage:
  scripts/bench_gate.py telemetry1.json [telemetry2.json ...]
      [--forbid COUNTER_PREFIX ...]   extra must-be-zero counter prefixes
      [--require COUNTER ...]         counters that must be present AND nonzero

Counter prefixes match exact names or any dotted child (e.g. "net.bus.dropped"
matches "net.bus.dropped" and "net.bus.dropped.upload").

Baseline mode (--baseline): the positional files are fresh bench snapshots
(scripts/bench_snapshot.py schema) compared row-by-row against a committed
baseline. A row is a FAIL when its ns_per_op exceeds the baseline by more than
--max-regression percent; a baseline row MISSING from the fresh snapshot is a
hard error (a renamed/deleted benchmark silently exits the perf trajectory
otherwise). Fresh rows absent from the baseline are reported but pass — they
join the gate when the baseline is next regenerated. When both files carry a
stamp (bench_snapshot.py) and the two differ, the comparison fails outright: the
build type (build_type) alone moves the numbers, and so do the widths the CPU runs
the ChaCha20 core (chacha_lanes: 4, 8 or 16) and the Montgomery batch kernel
(montgomery_lanes: 1 or 8) at. A runner of another width gates against a snapshot
taken at its own width. A file without a stamp passes.

Usage:
  scripts/bench_gate.py --baseline BENCH_crypto.json --max-regression 35 fresh.json
"""

import argparse
import json
import sys

DEFAULT_FORBIDDEN = [
    "net.bus.dropped",          # undeliverable messages (unknown/closed endpoint)
    "net.bus.unknown_target",   # sends routed to a name nobody registered: a protocol
                                # wiring bug (stale roster, typo'd role), never load
    "net.bus.fault_dropped",    # fault-injected losses: requires a FaultPlan
    "net.channel.open_rejected",  # tampered/replayed/malformed secure frames
    "net.retry.exhausted",      # a peer stayed unresponsive through the whole budget
    "net.bus.malformed_frames",  # oversized, unknown-kind or unparseable TCP frames,
                                 # each of which closed its connection
    "core.role.malformed_messages",  # messages a role or the observer dropped
                                     # because they did not parse
    "common.log.warnings",
    "common.log.errors",
]


# Snapshot stamps that must agree for two snapshots' timings to compare: the build type
# and the widths the CPU runs the ChaCha20 core and the Montgomery batch kernel at.
STAMP_KEYS = ("build_type", "chacha_lanes", "montgomery_lanes")


def matches(prefix: str, name: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def check_snapshot(path: str, forbidden, required) -> list:
    try:
        with open(path, encoding="utf-8") as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable telemetry JSON: {e}"]

    errors = []
    counters = snapshot.get("counters")
    if not isinstance(counters, dict):
        return [f"{path}: no 'counters' object — not a telemetry snapshot?"]

    for name, value in sorted(counters.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{path}: counter {name} has non-numeric value {value!r}")
            continue
        for prefix in forbidden:
            if matches(prefix, name) and value != 0:
                errors.append(f"{path}: must-be-zero counter {name} = {value}")
                break
    # Distinguish "the instrumentation disappeared" (counter absent — a refactor
    # silently dropped the DETA_COUNTER site or renamed it) from "the code path never
    # ran" (counter present but zero): they have different fixes, and the old combined
    # message sent people hunting in the wrong layer.
    for name in required:
        if name not in counters:
            hint = ""
            prefix = name.rsplit(".", 1)[0]
            near = sorted(c for c in counters if c.startswith(prefix))[:5]
            if near:
                hint = f" (present under the same prefix: {', '.join(near)})"
            errors.append(
                f"{path}: required counter {name} is MISSING from the snapshot — the "
                f"counter site may have been removed or renamed{hint}")
        else:
            value = counters[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                pass  # already reported as non-numeric above
            elif value == 0:
                errors.append(
                    f"{path}: required counter {name} is present but ZERO — the "
                    "instrumented code path never executed in this run")
    return errors


def load_bench_snapshot(path: str):
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    if not isinstance(snapshot.get("rows"), dict):
        raise ValueError(f"{path}: no 'rows' object — not a bench_snapshot.py file?")
    return snapshot


def check_baseline(baseline_path: str, fresh_path: str, max_regression: float) -> list:
    """Per-row relative gate: fresh ns_per_op vs the committed baseline."""
    try:
        baseline_snapshot = load_bench_snapshot(baseline_path)
        fresh_snapshot = load_bench_snapshot(fresh_path)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        return [f"unreadable bench snapshot: {e}"]
    for key in STAMP_KEYS:
        base_value = baseline_snapshot.get(key)
        fresh_value = fresh_snapshot.get(key)
        if base_value and fresh_value and base_value != fresh_value:
            return [f"{fresh_path} has {key} {fresh_value} but baseline {baseline_path} "
                    f"has {base_value}; gate against a snapshot of the same build type "
                    "and lane widths"]
    baseline = baseline_snapshot["rows"]
    fresh = fresh_snapshot["rows"]

    errors = []
    for name in sorted(baseline):
        base_ns = baseline[name].get("ns_per_op")
        if not isinstance(base_ns, (int, float)) or base_ns <= 0:
            errors.append(f"{baseline_path}: row {name} has bad ns_per_op {base_ns!r}")
            continue
        if name not in fresh:
            errors.append(
                f"{fresh_path}: baseline row {name} is MISSING — the benchmark was "
                "removed or renamed; regenerate the baseline if that was intentional")
            continue
        new_ns = fresh[name].get("ns_per_op")
        if not isinstance(new_ns, (int, float)) or new_ns <= 0:
            errors.append(f"{fresh_path}: row {name} has bad ns_per_op {new_ns!r}")
            continue
        delta_pct = (new_ns - base_ns) / base_ns * 100.0
        verdict = "FAIL" if delta_pct > max_regression else "ok"
        print(f"bench_gate: {verdict:4s} {name}: {base_ns:.0f} -> {new_ns:.0f} ns/op "
              f"({delta_pct:+.1f}%, limit +{max_regression:.0f}%)")
        if delta_pct > max_regression:
            errors.append(
                f"{name}: {new_ns:.0f} ns/op is {delta_pct:+.1f}% vs baseline "
                f"{base_ns:.0f} (limit +{max_regression:.0f}%)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"bench_gate: new  {name}: {fresh[name].get('ns_per_op')} ns/op "
              "(not in baseline; joins the gate at the next baseline refresh)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshots", nargs="+",
                        help="telemetry JSON files (counter mode) or fresh bench "
                             "snapshots (--baseline mode)")
    parser.add_argument("--forbid", action="append", default=[],
                        help="extra must-be-zero counter prefix")
    parser.add_argument("--require", action="append", default=[],
                        help="counter that must be present and nonzero")
    parser.add_argument("--baseline", default=None,
                        help="committed bench snapshot to gate ns_per_op against")
    parser.add_argument("--max-regression", type=float, default=35.0,
                        help="per-row allowed ns_per_op increase in percent "
                             "(baseline mode; default 35)")
    args = parser.parse_args()

    all_errors = []
    if args.baseline is not None:
        for path in args.snapshots:
            all_errors.extend(check_baseline(args.baseline, path, args.max_regression))
    else:
        forbidden = DEFAULT_FORBIDDEN + args.forbid
        for path in args.snapshots:
            all_errors.extend(check_snapshot(path, forbidden, args.require))

    if all_errors:
        for e in all_errors:
            print(f"bench_gate: FAIL {e}", file=sys.stderr)
        return 1
    print(f"bench_gate: OK ({len(args.snapshots)} snapshot(s) clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
