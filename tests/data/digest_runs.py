"""Print one digest of every output per run: the pin of every run's outputs.

    PYTHONPATH=src python tests/data/digest_runs.py | diff tests/data/digest_runs.txt -

`runs()` lists the six paper figure presets, each `*.cfg` beside this
script and `DRAWS` short scenarios drawn with `random.Random(2026)` over the
ranges of `scenarios()` in tests/test_invariants.py. For each run it prints
one `<sha256>  <run>` line: the digest of `outputs`, every output of the
run. digest_runs.txt beside this script pins those lines, so a pinned
scenario is a `.cfg` here plus its line there, and a declared model change
regenerates the file with this script. tests/test_acceptance.py checks each
run against its line, one test per run; this script needs no pytest, so CI
diffs its lines on every Python that runs the simulator. Printed under two
source trees, its lines also compare them run by run. The shortcut check
(tests/test_shortcuts.py) compares `outputs` too, so an output added to a
run is added here once; tests/test_cli.py checks that the CLI writes the
same files as `outputs`.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from hybridsim.kernel import Engine
from hybridsim.metrics import write_traces
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import _Controller
from hybridsim.scenario import Scenario, load_scenario, preset_path

HERE = Path(__file__).resolve().parent
PRESETS = ("paper_fig11", "paper_fig11b", "paper_fig12", "paper_fig12b",
           "paper_fig13", "paper_fig13b")
DRAWS = 100


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


def digest(scenario: Scenario) -> str:
    """The sha256 of `outputs(scenario)`: each file's name and bytes in name
    order, then the `repr` of the rest."""
    run = outputs(scenario)
    sha = hashlib.sha256()
    for name, data in sorted(run.pop("files").items()):
        sha.update(f"{name}\n".encode())
        sha.update(data)
    sha.update(repr(run).encode())
    return sha.hexdigest()


def runs() -> list[tuple[str, Scenario]]:
    """Every pinned run by name: the presets, each `*.cfg` beside this
    script, then the draws."""
    return [*((name, load_scenario(preset_path(name))) for name in PRESETS),
            *((path.stem, load_scenario(path)) for path in sorted(HERE.glob("*.cfg"))),
            *draws(DRAWS)]


def main() -> int:
    pinned = runs()
    for name, scenario in pinned:
        print(f"{digest(scenario)}  {name}", flush=True)
    print(f"{len(pinned)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
