"""Print one pin line per run: its outputs' digest and its integer outcome.

    PYTHONPATH=src python tests/data/digest_runs.py | diff tests/data/digest_runs.txt -

`runs()` lists the six paper figure presets, the acceptance sweep's runs
(paper_fig14 at each of `SWEEP_RATES` under each policy, named
`fig14_<optimizer>_<rate>` as perfbench names them), each `*.cfg` beside
this script and the first `DRAWS` draws, each distinct scenario once (the
sweep's `fig14_euno_300` and `fig14_etno_300` are `paper_fig12b` and
`paper_fig11b`). `draw(rng)` states once the ranges of every random
whole-run test scenario, `tie_prone(rng)` and `peripheral_prone(rng)` bend
its draws, and `drawn` draws from each one's own seed in `SEEDS`, so the
tests' draw sets move only with this script. For each run
it prints one line, `<sha256>  <run>  <events>  <node> <node> ...`: the
digest of `outputs`, every output of the run (with each node's bursts as
`spied_bursts` records them, since the simulator logs none), then the run's
integer outcome as its summary.json holds it, the event count and, for each
node in order, `bytes_delivered/packets_lost/sleep_entries/modality_switch_count`.
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
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from hybridsim.kernel import Engine
from hybridsim.metrics import MetricsRecord, write_traces
from hybridsim.node import SimNode
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


def draw(rng: random.Random) -> Scenario:
    """One short (<= 60 s), small (<= 5 nodes) scenario drawn from `rng`,
    over both policies, both sleep modes and small batteries, with f_c on
    either side of the ETNO thresholds, optional SNR jitter and harvest
    profiles, and lossless, lossy or (outside the field of view) dead
    optical links."""
    target = rng.uniform(20.0, 400.0)
    sleep_threshold = rng.choice([0.1, 0.2, 0.3])
    profile = () if rng.random() < 0.5 else tuple(
        (10.0 * i, rng.uniform(0.0, 30.0) * 1e-3) for i in range(rng.randint(1, 4)))
    return Scenario(
        duration_s=rng.uniform(5.0, 60.0),
        init_delay_s=rng.choice([0.0, 1.0, 5.0]),
        node_count=rng.randint(1, 5),
        distance_m=rng.choice([1.0, 30.0]),
        # 75 deg is outside the default 60 deg field of view: no optical link.
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
    )


def tie_prone(rng: random.Random) -> Scenario:
    """Scenarios drawn like `draw`. Half of them send a packet every
    100 or 50 ms with a 50 or 25 ms optical burst, slots of 2, 2.05 or 5 s,
    a start at 0, 0.95 or 1 s and no inter-transmission sleep, so each slot's
    stream starts at the slot and burst ends and packet-readies fall on the
    1 Hz tick: 50 ms bursts every 100 ms from 0.05 s before a whole second
    end there. A quarter start full under a harvest that outruns the draw,
    so a tick's harvest would clamp at capacity."""
    scenario = draw(rng)
    if rng.randint(0, 3) == 0:
        scenario = scenario.replace(initial_fraction=1.0, harvest_mw=30.0, harvest_profile=())
    if rng.random() < 0.5:
        rate = rng.choice([40.96, 81.92])  # 4,096-bit packets
        scenario = scenario.replace(
            target_rate_kbps=rate,
            conservation_rate_kbps=min(scenario.conservation_rate_kbps, rate),
            owc_phy_rate_kbps=rng.choice([81.92, 163.84]),
            poll_slot_s=rng.choice([2.0, 2.05, 5.0]),
            init_delay_s=rng.choice([0.0, 0.95, 1.0]),
            inter_transmission_sleep=False)
    return scenario


def peripheral_prone(rng: random.Random) -> Scenario:
    """Scenarios drawn like `draw`; half of them idle between slots,
    with no inter-transmission sleep, under a peripheral period of 0.1 to
    2 s, often shorter than the 1.05 s peripheral chain it starts."""
    scenario = draw(rng)
    if rng.random() < 0.5:
        scenario = scenario.replace(inter_transmission_sleep=False,
                                    peripheral_period_s=rng.uniform(0.1, 2.0))
    return scenario


# Each generator's one seed.
SEEDS = {draw: 2026, tie_prone: 2027, peripheral_prone: 2028}


def drawn(make, count: int) -> list[Scenario]:
    """The first `count` scenarios that `make` draws from `random.Random`
    at its seed in `SEEDS`."""
    rng = random.Random(SEEDS[make])
    return [make(rng) for _ in range(count)]


def draws(count: int) -> list[tuple[str, Scenario]]:
    """The first `count` scenarios of `draw`'s stream, each named by its
    index."""
    return [(f"draw-{index:03d}", scenario) for index, scenario in enumerate(drawn(draw, count))]


def _extend(records: list, start: int, period: int, length: int, count: int) -> None:
    """Append `count` bursts of `length` ns, `period` ns apart from `start`
    on, to `records`, a node's `(start, period, length, count)` records in
    greedy form: a burst extends the last record when it has the record's
    length and starts one period after its last burst, or, after a record's
    first burst, sets the period. A lone burst's record has period 0."""
    while count:
        taken = 1
        first, every, size, n = records[-1] if records else (0, 0, None, 0)
        if size == length and start > first and (n == 1 or start == first + n * every):
            every = every if n > 1 else start - first
            taken = count if period == every else 1
            records[-1] = (first, every, length, n + taken)
        else:
            records.append((start, 0, length, 1))
        start, count = start + taken * period, count - taken


def stretch_sent(now: int, left: int, plan) -> int:
    """The bursts that a stretch (`SimNode._run_stretch`) from `now` that
    returned `left` sent under `plan`: each burst, crossed or not, moves
    `now` one spacing on."""
    return (left - now) // plan.interval_ns


@contextmanager
def spied_bursts() -> Iterator[dict[str, list]]:
    """Record each burst that a node sends while the block runs, by node
    name, as `_extend` writes them. A stretch (`SimNode._run_stretch`)
    sends `stretch_sent` bursts at `now + i * plan.interval_ns`; any other
    burst starts in `SimNode.transmit_packet`. A burst lasts the plan's
    airtime, also one that a battery-low edge cut short. The spy wraps the
    two methods as it finds them, so it nests inside other spies, and
    restores them on leaving."""
    bursts, stretching = {}, set()
    run_stretch, transmit_packet = SimNode._run_stretch, SimNode.transmit_packet

    def stretch(node, now, plan):
        stretching.add(node)
        try:
            left = run_stretch(node, now, plan)
        finally:
            stretching.discard(node)
        if left > now:
            _extend(bursts.setdefault(node.name, []), now, plan.interval_ns, plan.airtime_ns,
                    stretch_sent(now, left, plan))
        return left

    def transmit(node, now):
        transmit_packet(node, now)
        if node not in stretching:
            _extend(bursts.setdefault(node.name, []), now, 0, node.plan.airtime_ns, 1)

    SimNode._run_stretch, SimNode.transmit_packet = stretch, transmit
    try:
        yield bursts
    finally:
        SimNode._run_stretch, SimNode.transmit_packet = run_stretch, transmit_packet


def outputs(scenario: Scenario) -> dict:
    """Every output of one run of `scenario`: the trace and summary bytes by
    file name, each node's bursts as `spied_bursts` records them and its
    transmit-eligible time, the event count and every node's random-stream
    state."""
    return outputs_of(_Controller(scenario, Engine()))


def outputs_of(controller: _Controller) -> dict:
    """`outputs` of the run that `controller`, not yet started, makes."""
    with spied_bursts() as bursts:
        record = controller.run()
    return gathered(controller, record, bursts)


def gathered(controller: _Controller, record: MetricsRecord, bursts: dict) -> dict:
    """`outputs` of a finished run: `controller`, its `record` and the
    `bursts` that `spied_bursts` recorded while it ran."""
    with tempfile.TemporaryDirectory() as out:
        files = {path.name: path.read_bytes() for path in write_traces(record, Path(out))}
    return {
        "files": files,
        "bursts": {node.name: bursts.get(node.name, []) for node in controller.nodes},
        "eligible_s": {name: nm.eligible_s for name, nm in record.nodes.items()},
        "events_executed": record.events_executed,
        "rng": [node.rng.getstate() for node in controller.nodes],
    }


def line(name: str, run: dict) -> str:
    """The pin line of run `name` from its `outputs`, `run`: the sha256 of
    the outputs, each file's name and bytes in name order and then the
    `repr` of the rest; the name; and the run's integer outcome, read from
    the summary bytes that the sha256 covers."""
    run = dict(run)
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
    order, each `*.cfg` beside this script, then the draws; a scenario
    listed twice runs once, under its first name."""
    fig14 = load_scenario(preset_path("paper_fig14"))
    first = {}  # each scenario's first name
    return [(name, scenario) for name, scenario in [
        *((name, load_scenario(preset_path(name))) for name in PRESETS),
        *((f"fig14_{optimizer}_{rate:g}", sweep_scenario(fig14, rate, optimizer))
          for rate in SWEEP_RATES for optimizer in OPTIMIZERS),
        *((path.stem, load_scenario(path)) for path in sorted(HERE.glob("*.cfg"))),
        *draws(DRAWS)] if first.setdefault(scenario, name) == name]


def main() -> int:
    pinned = runs()
    for name, scenario in pinned:
        print(line(name, outputs(scenario)), flush=True)
    print(f"{len(pinned)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
