"""Print one pin line per run: its outputs' digest and its integer outcome.

    PYTHONPATH=src python tests/data/digest_runs.py | diff tests/data/digest_runs.txt -

`runs()` lists the six paper figure presets, the acceptance sweep's 15
runs (paper_fig14 at each of `SWEEP_RATES` under each policy, named
`fig14_<optimizer>_<rate>` as perfbench names them), each `*.cfg` beside
this script and `DRAWS` short scenarios drawn with `random.Random(2026)`
over the ranges of `scenarios()` in tests/test_invariants.py. For each run
it prints one line, `<sha256>  <run>  <events>  <node> <node> ...`: the
digest of `outputs`, every output of the run, then the run's integer
outcome as its summary.json holds it, the event count and, for each node
in order, `bytes_delivered/packets_lost/sleep_entries/modality_switch_count`.
digest_runs.txt beside this script pins those lines, so a pinned scenario
is a `.cfg` here plus its line there, and a declared model change
regenerates the file with this script; `git diff --word-diff` of the file
then names each counter that moved in each run. tests/test_acceptance.py
checks each run against its line, one test per run; this script needs no
pytest, so CI diffs its lines on every Python that runs the simulator.
Printed under two source trees, its lines also compare them run by run.
The shortcut check (tests/test_shortcuts.py) compares `outputs` too, so an
output added to a run is added here once; tests/test_cli.py checks that the
CLI writes the same files as `outputs`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from hybridsim.kernel import Engine
from hybridsim.metrics import write_traces
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import _Controller, sweep_scenario
from hybridsim.scenario import OPTIMIZERS, Scenario, load_scenario, preset_path

HERE = Path(__file__).resolve().parent
PRESETS = ("paper_fig11", "paper_fig11b", "paper_fig12", "paper_fig12b",
           "paper_fig13", "paper_fig13b")
SWEEP_RATES = (150.0, 200.0, 250.0, 300.0, 350.0)  # kb/s
DRAWS = 100
# Each node's integer outcome, as its summary.json entry names it.
COUNTERS = ("bytes_delivered", "packets_lost", "sleep_entries", "modality_switch_count")


def draws(count: int) -> list[tuple[str, Scenario]]:
    """The first `count` scenarios of the seeded draw, each named by its
    index: the ranges and choices of `scenarios()`."""
    rng = random.Random(2026)
    runs = []
    for index in range(count):
        target = rng.uniform(20.0, 400.0)
        sleep_threshold = rng.choice([0.1, 0.2, 0.3])
        profile = () if rng.random() < 0.5 else tuple(
            (10.0 * i, rng.uniform(0.0, 30.0) * 1e-3) for i in range(rng.randint(1, 4)))
        runs.append((f"draw-{index:03d}", Scenario(
            duration_s=rng.uniform(5.0, 60.0),
            init_delay_s=rng.choice([0.0, 1.0, 5.0]),
            node_count=rng.randint(1, 5),
            distance_m=rng.choice([1.0, 30.0]),
            incidence_angle_deg=rng.choice([0.0, 30.0, 75.0]),
            seed=rng.randint(1, 1000),
            optimizer=rng.choice(["euno", "etno", "etno-owc"]),
            inter_transmission_sleep=rng.random() < 0.5,
            target_rate_kbps=target,
            conservation_rate_kbps=target * rng.uniform(0.05, 1.0),
            poll_slot_s=rng.uniform(1.0, 25.0),
            battery_capacity_j=rng.uniform(0.05, 4.0),
            initial_fraction=rng.uniform(0.1, 1.0),
            harvest_mw=rng.uniform(0.0, 30.0),
            harvest_profile=profile,
            snr_jitter_db=rng.choice([0.0, 2.0]),
            etno_sleep_threshold=sleep_threshold,
            etno_conservation_threshold=sleep_threshold + 0.2,
            weights=UtilityWeights(f_c=rng.choice([0.05, 0.2, 0.35, 0.6])),
        )))
    return runs


def outputs(scenario: Scenario) -> dict:
    """Every output of one run of `scenario`: the trace and summary bytes by
    file name, each node's burst log (`tx_intervals`) and transmit-eligible
    time, the event count and every node's random-stream state."""
    engine = Engine()
    controller = _Controller(scenario, engine)
    controller.start()
    engine.run_until(controller.total_ns)
    record = controller.finalize()
    with tempfile.TemporaryDirectory() as out:
        files = {path.name: path.read_bytes() for path in write_traces(record, Path(out))}
    return {
        "files": files,
        "tx_intervals": {name: nm.tx_intervals for name, nm in record.nodes.items()},
        "eligible_s": {name: nm.eligible_s for name, nm in record.nodes.items()},
        "events_executed": record.events_executed,
        "rng": [node.rng.getstate() for node in controller.nodes],
    }


def line(name: str, scenario: Scenario) -> str:
    """The pin line of run `name`: the sha256 of `outputs(scenario)`, each
    file's name and bytes in name order and then the `repr` of the rest;
    the name; and the run's integer outcome, read from the summary bytes
    that the sha256 covers."""
    run = outputs(scenario)
    files = run.pop("files")
    sha = hashlib.sha256()
    for file, data in sorted(files.items()):
        sha.update(f"{file}\n".encode())
        sha.update(data)
    sha.update(repr(run).encode())
    summary = json.loads(files["summary.json"])
    nodes = summary["nodes"]  # by name, `node1` to `node<N>`
    outcome = " ".join("/".join(str(nodes[node][key]) for key in COUNTERS)
                       for node in sorted(nodes, key=lambda node: (len(node), node)))
    return f"{sha.hexdigest()}  {name}  {summary['events_executed']}  {outcome}"


def runs() -> list[tuple[str, Scenario]]:
    """Every pinned run by name: the presets, the sweep in `runner.sweep`'s
    order, each `*.cfg` beside this script, then the draws."""
    fig14 = load_scenario(preset_path("paper_fig14"))
    return [*((name, load_scenario(preset_path(name))) for name in PRESETS),
            *((f"fig14_{optimizer}_{rate:g}", sweep_scenario(fig14, rate, optimizer))
              for rate in SWEEP_RATES for optimizer in OPTIMIZERS),
            *((path.stem, load_scenario(path)) for path in sorted(HERE.glob("*.cfg"))),
            *draws(DRAWS)]


def main() -> int:
    pinned = runs()
    for name, scenario in pinned:
        print(line(name, scenario), flush=True)
    print(f"{len(pinned)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
