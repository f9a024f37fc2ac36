"""Compare two benchmark result files written by `perfbench/run.py --out`.

    python3 perfbench/compare.py BEFORE.json AFTER.json

For every workload in both files it applies the ROADMAP's speed-up gate to
each run: integer counters equal and energies within 1e-9 relative. A
workload's output is `identical` when every run's summary.json and trace CSVs
hash the same, `within gate` when they differ but every run passes the gate,
and `changed` otherwise. It also prints each metric's two medians. Exits 1 if
any workload's output changed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12  # summary.json rounds energies to 12 decimals
INTEGERS = ("bytes_delivered", "packets_lost", "modality_switch_count", "sleep_entries")
ENERGIES = ("consumed_j", "harvested_j", "remaining_j", "initial_j", "transmit_eligible_s")


def gate_breaks(before: dict, after: dict) -> list[str]:
    """Where run `after` fails the speed-up gate against run `before`."""
    breaks = []
    if before["events"] != after["events"]:
        breaks.append(f"events {before['events']} -> {after['events']}")
    if not math.isclose(before["gateway_consumed_j"], after["gateway_consumed_j"],
                        rel_tol=REL_TOL, abs_tol=ABS_TOL):
        breaks.append("gateway_consumed_j")
    if before["nodes"].keys() != after["nodes"].keys():
        return breaks + ["node set"]
    for name, b in before["nodes"].items():
        a = after["nodes"][name]
        breaks += [f"{name}.{key} {b[key]} -> {a[key]}" for key in INTEGERS if b[key] != a[key]]
        breaks += [f"{name}.{key} {b[key]!r} -> {a[key]!r}" for key in ENERGIES
                   if not math.isclose(b[key], a[key], rel_tol=REL_TOL, abs_tol=ABS_TOL)]
    return breaks


def compare_workload(before: dict, after: dict) -> tuple[str, list[str]]:
    common = sorted(before["runs"].keys() & after["runs"].keys())
    if not common:
        return "not comparable", ["no run in common (another seed?)"]
    notes, verdict = [], "identical"
    for name in common:
        b, a = before["runs"][name], after["runs"][name]
        if b["digest"] == a["digest"]:
            continue
        breaks = gate_breaks(b, a)
        if breaks:
            verdict = "changed"
            notes += [f"{name}: {msg}" for msg in breaks]
        elif verdict == "identical":
            verdict = "within gate"
    return verdict, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    changed = False
    for workload in sorted(before.keys() & after.keys()):
        for mode in sorted(before[workload].keys() & after[workload].keys()):
            b, a = before[workload][mode], after[workload][mode]
            verdict, notes = compare_workload(b, a)
            changed |= verdict == "changed"
            print(f"{workload} ({mode}): output {verdict}")
            for note in notes:
                print(f"  {note}")
            for name, metric in b["metrics"].items():
                if name in a["metrics"]:
                    old, new = metric["value"], a["metrics"][name]["value"]
                    ratio = f"{new / old:.4f}x" if old else "-"
                    print(f"  {name:28s} {old:12.6g} -> {new:12.6g} {metric['unit']:6s} {ratio}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
