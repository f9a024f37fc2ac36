"""hybridsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload presets|fleet|sweep|all --seed N \
        --seconds S --trace 0|1 [--out results.json]

Run it from the root of a hybridsim checkout. Every repetition is a fresh
single-threaded Python process (perfbench/worker.py) that imports hybridsim
from the checkout's `src/`, like one CLI invocation; runs execute back to
back in it (closed loop). The workload seed only shapes the generated
`fleet` scenario; the presets and the sweep use the shipped files and their
own seeds.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones. The metric names and units come from BENCHMARK.json. Each
pass runs with its own fixed PYTHONHASHSEED (0, 1, 2, ...): hybridsim's speed
depends on the string-hash layout, so every run covers the same set of
layouts.

End-to-end times are in reference-host seconds (unit `ref_s`; `setup_s`
too): host seconds scaled by PROBE_REF_S over the mean host probe taken
around the timed work. On a shared host whose speed drifts by up to 1.7x
over minutes, raw seconds cannot compare two runs made minutes apart; the
scaled ones can. Raw seconds and probes are printed and kept with `--out`.
Per-layer times are raw seconds of the traced passes.

The last output line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--out` also merges the full
result, with every run's counters, energies and digests, into a JSON file
that perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import PAPER_MB

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("presets", "fleet", "sweep")
SETUP_PROCESSES = 7
# Seconds one untraced pass takes, with its process start, checks and probes,
# on a busy 2-core Xeon host under Python 3.11. They set how many passes a
# run makes, so that both commits of a comparison make the same number.
NOMINAL_PASS_S = {"presets": 6.0, "fleet": 3.0, "sweep": 15.0}
# Probe time (worker.host_probe) of the reference host that end-to-end times
# are scaled to: the 2-core Xeon host above when no other tenant is busy.
PROBE_REF_S = 0.020
TRACED_PAIR_FACTOR = 2.5  # an untraced plus a traced pass, in nominal passes
OVERRUN = 1.2  # on a slow host, start no pass after OVERRUN * --seconds
LAST_START_S = 150.0  # nor after this
HARD_LIMIT_S = 170.0  # kill a worker still running then; a run must end within 180 s


class BenchError(RuntimeError):
    pass


def fleet_config(seed: int) -> str:
    """64 nodes, 5 s slots, EUNO, harvest drawn in 60 s segments.

    Segments come in antithetic pairs (u, 20.5 - u): each is uniform in
    0.5-20 mW, but every 120 s delivers the same energy, so the amount of
    simulated work barely depends on the seed.
    """
    rng = random.Random(seed)
    segments = []
    for _ in range(9):
        mw = rng.uniform(0.5, 20.0)
        segments += [mw, 20.5 - mw]
    profile = ", ".join(f"{60 * i}:{mw:.9g}" for i, mw in enumerate(segments))
    return (
        "# Generated fleet scenario for the hybridsim benchmark.\n"
        "[scenario]\n"
        "node_count = 64\n"
        f"seed = {seed}\n"
        "optimizer = euno\n"
        "inter_transmission_sleep = false\n"
        "\n[traffic]\n"
        "target_rate_kbps = 32\n"
        "conservation_rate_kbps = 8\n"
        "poll_slot_s = 5\n"
        "\n[energy]\n"
        "initial_fraction = 0.5\n"
        f"harvest_profile = {profile}\n"
        "\n[optimizer]\n"
        "snr_jitter_db = 2\n"
    )


def child(args: list[str], hash_seed: int, hard_end: float) -> dict:
    """Run perfbench/worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, hard_end - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def score_runs(passes: list[dict]) -> tuple[int, int, list[str], dict]:
    """Attempted and failed runs over all passes, why each failed, and the
    first pass's description of every run.

    A run fails on an exception, a broken invariant, or when another pass
    wrote different output for it.
    """
    attempted = failed = 0
    problems = []
    first = {}
    for p in passes:
        for error in p["errors"].values():
            problems.append(error.strip().splitlines()[-1])
        for name in p["expected"]:
            attempted += 1
            run = p["runs"].get(name)
            if run is None:
                failed += 1
                continue
            first.setdefault(name, run)
            if run["invariant_breaks"]:
                failed += 1
                problems += [f"{name}: {b}" for b in run["invariant_breaks"]]
            elif run["digest"] != first[name]["digest"]:
                failed += 1
                problems.append(f"{name}: output differs between passes")
    return attempted, failed, problems, first


def paper_mb_err_pct(runs: dict) -> float:
    errs = [abs(runs[name]["node1_mb"] - mb) / mb for name, mb in PAPER_MB.items()]
    return 100.0 * sum(errs) / len(errs)


def reference_s(seconds: float, probe_s: float) -> float:
    """Scale host seconds to the reference host, whose probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_s


def untraced(workload: str, fleet_cfg: str, work: Path, seconds: int,
             last_start: float, hard_end: float) -> dict:
    setups = [child(["setup", workload, str(ROOT), fleet_cfg], h, hard_end)
              for h in range(SETUP_PROCESSES)]
    count = max(2, int(seconds / NOMINAL_PASS_S[workload]))
    passes = []
    for h in range(count):
        if passes and time.monotonic() > last_start:
            break
        out = Path(tempfile.mkdtemp(dir=work))
        result = child(["pass", workload, str(ROOT), fleet_cfg, str(out)], h, hard_end)
        result["hash_seed"] = h
        passes.append(result)
        shutil.rmtree(out)
        print(f"  pass {h}: wall {result['wall_s']:.4f} s, rss {result['rss_mb']:.1f} MB, "
              f"probe {result['probe_s'] * 1e3:.2f} ms", flush=True)
    attempted, failed, problems, runs = score_runs(passes)
    refs = {name: run for name, run in runs.items() if name in PAPER_MB}
    if not set(PAPER_MB) <= set(refs):
        out = Path(tempfile.mkdtemp(dir=work))
        reference = child(["pass", "reference", str(ROOT), fleet_cfg, str(out)], 0, hard_end)
        shutil.rmtree(out)
        ref_attempted, ref_failed, ref_problems, refs = score_runs([reference])
        attempted += ref_attempted
        failed += ref_failed
        problems += ref_problems
    walls = [reference_s(p["wall_s"], p["probe_s"]) for p in passes]
    values = {
        "setup_s": [reference_s(s["setup_s"], s["probe_s"]) for s in setups],
        "wall_s": walls,
        "sim_s_per_s": [sum(r["sim_s"] for r in p["runs"].values()) / wall
                        for p, wall in zip(passes, walls)],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "raw_setup_s": [s["setup_s"] for s in setups],
        "raw_wall_s": [p["wall_s"] for p in passes],
        "probe_s": [p["probe_s"] for p in passes],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["ok_frac"] = (attempted - failed) / attempted
    metrics["paper_mb_err_pct"] = paper_mb_err_pct(refs) if set(PAPER_MB) <= set(refs) else None
    return {"metrics": metrics, "samples": values, "attempted": attempted,
            "failed": failed, "problems": problems, "runs": runs,
            "passes": [{k: p[k] for k in ("hash_seed", "wall_s", "rss_mb", "probe_s")}
                       for p in passes]}


def layer_metrics(traced_pass: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    trace = traced_pass["trace"]
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    packet_ready = calls("node.packet_ready")
    out = {
        "node.packet_ready_s": self_s("node.packet_ready"),
        "node.transmit_end_s": self_s("node.transmit_end"),
        "node.chain_step_s": self_s("node.chain_step"),
        "node.tx_bursts": counts.get("node.tx_bursts", 0),
        "node.packet_ready_useful": (counts.get("node.tx_bursts", 0) / packet_ready
                                     if packet_ready else 0.0),
        "kernel.events": counts.get("kernel.events", 0),
        "kernel.scheduled": counts.get("kernel.scheduled", 0),
        "kernel.cancelled": counts.get("kernel.cancelled", 0),
        "kernel.dispatch_self_s": self_s("kernel.run_until"),
        "linklayer.fsm_dispatches": counts.get("linklayer.fsm_dispatches", 0),
        "energy.consume_calls": counts.get("energy.consume_calls", 0),
        "energy.harvest_calls": counts.get("energy.harvest_calls", 0),
        "energy.battery_low_edges": counts.get("energy.battery_low_edges", 0),
        "energy.battery_charged_edges": counts.get("energy.battery_charged_edges", 0),
        "energy.predict_calls": calls("energy.predict"),
        "energy.predict_s": self_s("energy.predict"),
        "optimizer.select_calls": calls("optimizer.select"),
        "optimizer.select_s": self_s("optimizer.select"),
        "runner.harvest_tick_s": self_s("runner.harvest_tick"),
        "runner.optimizer_tick_s": self_s("runner.optimizer_tick"),
        "runner.poll_tick_s": self_s("runner.poll_tick"),
        "runner.peripheral_tick_s": self_s("runner.peripheral_tick"),
        "runner.trace_rows": sum(r["trace_rows"] for r in traced_pass["runs"].values()),
        "runner.link_plan_s": self_s("runner.link_plan"),
        "metrics.write_s": self_s("metrics.write"),
        "metrics.bytes_written": sum(r["bytes"] for r in traced_pass["runs"].values()),
        "scenario.load_s": self_s("scenario.load"),
        "scenario.loads": calls("scenario.load"),
        "trace.wall_s": trace["pass_wall_s"],
        "trace.uncovered_s": trace["uncovered_s"],
        "trace.overhead_s": traced_pass["wall_s"] - untraced_wall_s,
    }
    return out


def traced(workload: str, fleet_cfg: str, work: Path, seconds: int,
           last_start: float, hard_end: float) -> dict:
    count = max(2, int(seconds / (NOMINAL_PASS_S[workload] * TRACED_PAIR_FACTOR)))
    plain, passes, layers = [], [], []
    for h in range(count):
        if passes and time.monotonic() > last_start:
            break
        pair = []
        for trace in (False, True):
            out = Path(tempfile.mkdtemp(dir=work))
            args = ["pass", workload, str(ROOT), fleet_cfg, str(out)]
            pair.append(child(args + ["--trace"] * trace, h, hard_end))
            shutil.rmtree(out)
        plain.append(pair[0])
        passes.append(pair[1])
        layers.append(layer_metrics(pair[1], pair[0]["wall_s"]))
        trace = pair[1]["trace"]
        print(f"  pair {h}: untraced {pair[0]['wall_s']:.4f} s, traced "
              f"{pair[1]['wall_s']:.4f} s; self times {trace['self_sum_s']:.4f} s + "
              f"uncovered {trace['uncovered_s']:.4f} s of {trace['pass_wall_s']:.4f} s",
              flush=True)
    attempted, failed, problems, runs = score_runs(plain + passes)
    counts_repeat = all(
        layer[name] == layers[0][name] for layer in layers for name in layer
        if not name.endswith("_s"))
    if not counts_repeat:
        problems.append("per-layer counts differ between traced passes")
    accounted = all(abs(p["trace"]["self_sum_s"] + p["trace"]["uncovered_s"]
                        - p["trace"]["pass_wall_s"]) < 1e-6 for p in passes)
    if not accounted:
        problems.append("self times and uncovered time do not add up to the traced wall time")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               if name.endswith("_s") else layers[0][name] for name in layers[0]}
    return {"metrics": metrics, "samples": {n: [l[n] for l in layers] for n in layers[0]},
            "attempted": attempted, "failed": failed, "problems": problems,
            "runs": runs, "counts_repeat": counts_repeat, "accounted": accounted,
            "passes": [{"hash_seed": h, "untraced_wall_s": u["wall_s"],
                        "traced_wall_s": t["wall_s"], "probe_s": u["probe_s"],
                        "spans": t["trace"]["spans"]}
                       for h, (u, t) in enumerate(zip(plain, passes))]}


def host_info() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "processor": platform.processor()}


def bench(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    started = time.monotonic()
    last_start = started + min(LAST_START_S, OVERRUN * seconds)
    hard_end = started + HARD_LIMIT_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        fleet_cfg = work / "fleet.cfg"
        fleet_cfg.write_text(fleet_config(seed))
        measure = traced if trace else untraced
        result = measure(workload, str(fleet_cfg), work, seconds, last_start, hard_end)
    finally:
        shutil.rmtree(work)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [name for name in units if result["metrics"].get(name) is None]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  host=host_info(), elapsed_s=time.monotonic() - started)
    result["correct"] = result["failed"] == 0 and not result["problems"]
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"Python {result['host']['python']}, nproc {result['host']['nproc']}):")
    for name, unit in units.items():
        samples = result["samples"].get(name, [])
        spread = ""
        if len(set(samples)) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:28s} {result['metrics'][name]:.6g} {unit}{spread}")
    unscaled = {k: v for k, v in result["metrics"].items() if k not in units}
    for name, value in unscaled.items():
        print(f"  {name:28s} {value:.6g} s  (host seconds, not scaled)")
    print(f"  failed_frac                  {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} runs)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    result["unscaled"] = unscaled
    return result


def merge_out(path: Path, result: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    mode = "traced" if result["trace"] else "untraced"
    data["workloads"].setdefault(result["workload"], {})[mode] = result
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="merge the full result into this JSON file")
    args = parser.parse_args()
    # Exit through the normal path on SIGTERM, so that the running worker is
    # killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hybridsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a hybridsim checkout (needs src/hybridsim and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = bench(workload, args.seed, args.seconds, bool(args.trace), spec)
            if args.out:
                merge_out(args.out, result)
            print(json.dumps({key: result[key] for key in
                              ("correct", "attempted", "failed", "metrics")}), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
