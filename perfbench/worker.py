"""One benchmark repetition in a fresh, single-threaded Python process.

    python3 perfbench/worker.py setup     WORKLOAD ROOT FLEET_CFG
    python3 perfbench/worker.py pass      WORKLOAD ROOT FLEET_CFG OUT_DIR [--trace]

`setup` times importing hybridsim and loading every scenario of the workload.
`pass` loads the workload's scenarios, then times its run phase: every run
and every trace write, through the public entry points `load_scenario`,
`runner.run`, `runner.sweep` and `metrics.write_traces`. Between the timed
intervals it checks each run's invariants and digests its output files.
The `reference` workload is the presets that have a paper reference value.

Each mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

PRESETS = ("paper_fig11", "paper_fig11b", "paper_fig12", "paper_fig12b",
           "paper_fig13", "paper_fig13b")
SWEEP_BASE = "paper_fig14"
SWEEP_RATES = (150.0, 200.0, 250.0, 300.0, 350.0)
SWEEP_OPTIMIZERS = ("euno", "etno", "etno-owc")
# Node 1's delivered megabytes in the paper's figures.
PAPER_MB = {"paper_fig11": 5.78, "paper_fig11b": 10.72,
            "paper_fig12": 6.68, "paper_fig12b": 11.32}

PROBE_ITERATIONS = 300_000
LEDGER_TOL = 1e-9
BOUND_TOL = 1e-12


def import_hybridsim(root: Path) -> None:
    """Import hybridsim from the checkout's own sources, never an install."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hybridsim
    if Path(hybridsim.__file__).resolve().parent != src / "hybridsim":
        raise ImportError(f"hybridsim imported from {hybridsim.__file__}, not {src}")


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a slow host shows as a slow probe.

    The end-to-end times are scaled by the mean probe taken around them,
    because a shared host's speed drifts as other tenants come and go.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def expected_runs(workload: str) -> list[str]:
    if workload == "presets":
        return list(PRESETS)
    if workload == "reference":
        return list(PAPER_MB)
    if workload == "sweep":
        return [f"fig14_{opt}_{rate:g}" for rate in SWEEP_RATES for opt in SWEEP_OPTIMIZERS]
    if workload == "fleet":
        return ["fleet"]
    raise ValueError(f"unknown workload {workload}")


def load(workload: str, root: Path, fleet_cfg: str) -> list:
    from hybridsim import scenario
    if workload == "fleet":
        return [scenario.load_scenario(fleet_cfg)]
    presets = root / "src" / "hybridsim" / "data" / "scenarios"
    names = [SWEEP_BASE] if workload == "sweep" else expected_runs(workload)
    return [scenario.load_scenario(presets / f"{name}.cfg") for name in names]


def execute(workload: str, scenarios: list, out_dir: Path, probe: bool) -> tuple:
    """Run the workload, writing each run's traces as it ends.

    Returns (description by run name, error text by run name, nanoseconds
    spent in runs and trace writes, host probes). `runner.run` is wrapped, so
    the runs inside `runner.sweep` are measured too. Describing a run and the
    host probe (before each run and after the last, with `probe`) happen
    outside the timed intervals, and each run's record is dropped once
    described, so peak memory is that of one run, as in a CLI invocation.
    """
    from hybridsim import metrics, runner
    expected = expected_runs(workload)
    runs, errors, probes = {}, {}, []
    busy_ns = calls = 0
    run = runner.run

    def measured(scenario):
        nonlocal busy_ns, calls
        calls += 1
        if probe:
            probes.append(host_probe())
        t0 = time.perf_counter_ns()
        record = run(scenario)
        name = (f"fig14_{record.config['optimizer']}_{record.config['target_rate_kbps']:g}"
                if workload == "sweep" else expected[calls - 1])
        metrics.write_traces(record, out_dir / name)
        busy_ns += time.perf_counter_ns() - t0
        runs[name] = describe(record, out_dir / name)
        return record

    runner.run = measured
    try:
        if workload == "sweep":
            try:
                runner.sweep(scenarios[0], list(SWEEP_RATES), SWEEP_OPTIMIZERS)
            except Exception:
                errors["sweep"] = traceback.format_exc()
        else:
            for name, scenario in zip(expected, scenarios):
                try:
                    runner.run(scenario)
                except Exception:
                    errors[name] = traceback.format_exc()
    finally:
        runner.run = run
    if probe:
        probes.append(host_probe())
    return runs, errors, busy_ns, probes


def owned_slot_s(record, index: int) -> float:
    """Seconds of poll slots that node `index` (0-based) held in the run."""
    cfg = record.config
    total = cfg["init_delay_s"] + cfg["duration_s"]
    slot, nodes = cfg["poll_slot_s"], cfg["node_count"]
    owned, k = 0.0, 0
    while cfg["init_delay_s"] + k * slot < total:
        start = cfg["init_delay_s"] + k * slot
        if k % nodes == index:
            owned += min(slot, total - start)
        k += 1
    return owned


def invariant_breaks(record) -> list[str]:
    """The ROADMAP invariants: energy ledger, buffer bounds on every trace row,
    achieved rate <= target rate, eligible time <= owned slot time."""
    cfg = record.config
    capacity = cfg["battery_capacity_j"]
    breaks = []
    for index, (name, nm) in enumerate(sorted(record.nodes.items(),
                                              key=lambda item: int(item[0][4:]))):
        ledger = nm.initial_j + nm.harvested_j - nm.consumed_j
        if abs(nm.remaining_j - ledger) > LEDGER_TOL * capacity:
            breaks.append(f"{name}: ledger off by {nm.remaining_j - ledger:.3g} J")
        if not all(-BOUND_TOL <= row.remaining_j <= capacity + BOUND_TOL for row in nm.rows):
            breaks.append(f"{name}: buffer out of [0, {capacity}] J in a trace row")
        if nm.achieved_rate_kbps > cfg["target_rate_kbps"] * (1 + LEDGER_TOL):
            breaks.append(f"{name}: achieved {nm.achieved_rate_kbps} kb/s "
                          f"> target {cfg['target_rate_kbps']}")
        owned = owned_slot_s(record, index)
        if nm.eligible_s > owned * (1 + LEDGER_TOL) + LEDGER_TOL:
            breaks.append(f"{name}: eligible {nm.eligible_s} s > owned slots {owned} s")
    return breaks


def digest(run_dir: Path) -> tuple[str, int]:
    """sha256 over the run's output files (name and bytes), and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def describe(record, run_dir: Path) -> dict:
    """Integer counters, energies and output digest of one run."""
    sha, size = digest(run_dir)
    nodes = {}
    for name, nm in sorted(record.nodes.items()):
        counters = nm.counters()
        nodes[name] = {key: counters[key] for key in (
            "bytes_delivered", "packets_lost", "modality_switch_count", "sleep_entries",
            "consumed_j", "harvested_j", "remaining_j", "initial_j")}
        nodes[name]["transmit_eligible_s"] = nm.eligible_s
    return {"events": record.events_executed,
            "gateway_consumed_j": record.gateway_consumed_j,
            "sim_s": record.config["init_delay_s"] + record.config["duration_s"],
            "trace_rows": sum(len(nm.rows) for nm in record.nodes.values()),
            "node1_mb": record.node(1).megabytes_delivered,
            "nodes": nodes, "digest": sha, "bytes": size,
            "invariant_breaks": invariant_breaks(record)}


def do_setup(workload: str, root: Path, fleet_cfg: str) -> dict:
    probe_s = host_probe()
    t0 = time.perf_counter()
    import_hybridsim(root)
    load(workload, root, fleet_cfg)
    return {"setup_s": time.perf_counter() - t0, "probe_s": probe_s}


def do_pass(workload: str, root: Path, fleet_cfg: str, out_dir: Path,
            trace: bool) -> dict:
    import_hybridsim(root)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter_ns()
    scenarios = load(workload, root, fleet_cfg)
    load_ns = time.perf_counter_ns() - t0
    runs, errors, busy_ns, probes = execute(workload, scenarios, out_dir,
                                            probe=tracer is None)
    result = {
        "wall_s": busy_ns / 1e9,
        "probe_s": sum(probes) / len(probes) if probes else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "expected": expected_runs(workload),
        "errors": errors,
        "runs": runs,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(load_ns + busy_ns)
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = do_setup(argv[1], Path(argv[2]), argv[3])
    elif mode == "pass":
        result = do_pass(argv[1], Path(argv[2]), argv[3], Path(argv[4]),
                         trace="--trace" in argv[5:])
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
