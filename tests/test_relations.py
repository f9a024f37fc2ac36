"""Metamorphic relations between two runs of every pinned run.

A declared model change regenerates tests/data/digest_runs.txt, after which
the pins check only that the new model is deterministic. A relation between
two runs of one source tree holds whatever the pins say, so it still sees an
error that a re-pin would bless: a joule term that is not scaled like the
others, or a rule that reads a node count it should not. R6 compares a run
cut and resumed with its straight run, whose line the pin holds.
"""

import hashlib
import json
import pickle
import random

import pytest

from hybridsim import runner
from hybridsim.kernel import Engine, RngStream, seconds
from hybridsim.metrics import NodeMetrics
from hybridsim.runner import _Controller, build_link_plans
from conftest import digest_runs, metrics_fields, spied_bursts
from test_acceptance import PINNED_LINES

# The `NodeMetrics` fields that hold joules: the trace's remaining and
# consumed columns, the run's harvest lumps and the joules each clamped tick
# took, then the totals.
JOULE_ARRAYS = ("values", "lumps", "clamped_j")
JOULE_TOTALS = ("consumed_j", "harvested_j", "remaining_j", "initial_j")


def _doubled(scenario):
    """`scenario` with its supply voltage, battery capacity and harvest
    power (the constant one and each profile segment's) doubled."""
    return scenario.replace(
        supply_voltage=2 * scenario.supply_voltage,
        battery_capacity_j=2 * scenario.battery_capacity_j,
        harvest_mw=2 * scenario.harvest_mw,
        harvest_profile=tuple((start, 2 * watts) for start, watts in scenario.harvest_profile))


def _scaled(nm: NodeMetrics, factor: float) -> dict:
    """Every field of `nm`, its joules multiplied by `factor`."""
    return metrics_fields(nm, **{name: [factor * j for j in getattr(nm, name)]
                                 for name in JOULE_ARRAYS},
                          **{name: factor * getattr(nm, name) for name in JOULE_TOTALS})


def _spied_run(scenario):
    """`runner.run(scenario)` and the bursts that `spied_bursts` recorded."""
    with spied_bursts() as bursts:
        return runner.run(scenario), bursts


def test_doubling_every_energy_doubles_every_joule_and_keeps_the_rest():
    """R1, energy scale. Every joule of the model is a product of a current
    and the supply voltage over a time, or of a harvest power over a time,
    or a fraction of the battery capacity (its start and its threshold),
    and the run adds, subtracts, clamps and compares joules only with each
    other and divides them only by the capacity or by a joule step. So
    doubling the voltage, the capacity and the harvest doubles every joule
    and changes no decision: every integer, label, burst and eligible time
    stays. Doubling a float is exact in binary, and
    every float operation on joules commutes with it, so this is equality,
    not a tolerance."""
    failed = []
    for name, scenario in digest_runs.runs():
        (plain, bursts), (doubled, doubled_bursts) = map(_spied_run,
                                                         (scenario, _doubled(scenario)))
        if (plain.events_executed != doubled.events_executed or bursts != doubled_bursts
                or [_scaled(nm, 2.0) for nm in plain.nodes.values()]
                != [_scaled(nm, 1.0) for nm in doubled.nodes.values()]):
            failed.append(name)
    assert not failed, f"energy scale x2 changed runs: {failed}"


def _without(outputs: dict) -> dict:
    """`outputs` with its summary parsed and stripped of the two entries
    that the sleep setting may change: that key and the event count."""
    files = dict(outputs["files"])
    summary = json.loads(files.pop("summary.json"))
    del summary["config"]["inter_transmission_sleep"], summary["events_executed"]
    return {**outputs, "files": files, "summary": summary, "events_executed": None}


def test_a_lone_node_runs_alike_with_and_without_inter_transmission_sleep():
    """R2, lone node. A node alone holds every poll slot from the first poll
    on. Inter-transmission sleep parks a node between slots only when
    another node's slot comes next, which never happens to it; what is left
    of the setting is the world's peripheral cycle, which runs only
    without it. That cycle starts a chain only in a node idling outside its
    slot, so it starts none, and only settles the node, on a whole second
    in every pinned run (each starts polling on a whole second and runs the
    cycle every 10 s), where the 1 Hz tick settles it in the same float
    order. A stretch that a cycle's tick stops ends as its queued bursts
    would (`tests/test_shortcuts.py`). So only the setting in the summary's
    config and the cycle's own events differ."""
    failed = []
    for name, scenario in digest_runs.runs():
        asleep, awake = (
            _without(digest_runs.outputs(scenario.replace(node_count=1,
                                                          inter_transmission_sleep=sleep)))
            for sleep in (True, False))
        if asleep != awake:
            failed.append(name)
    assert not failed, f"a lone node's sleep setting changed runs: {failed}"


def _seedless(run: dict) -> dict:
    """`digest_runs.outputs(...)` less what a seed may move: the random
    streams' state, and the two seed fields of `summary.json`."""
    summary = json.loads(run["files"]["summary.json"])
    del summary["seed"], summary["config"]["seed"]
    files = {**run["files"], "summary.json": json.dumps(summary, sort_keys=True, indent=2)}
    return {**run, "files": files, "rng": None}


def _certain(scenario):
    """`scenario` without SNR jitter, and at 1 m unless its optical link is
    dead (75 deg lies outside the default field of view, and the radio
    delivers at 30 m too)."""
    return scenario.replace(snr_jitter_db=0.0, distance_m=(
        scenario.distance_m if scenario.incidence_angle_deg == 75.0 else 1.0))


@pytest.mark.parametrize("scenario", [
    pytest.param(_certain(scenario), id=name) for name, scenario in digest_runs.runs()
    if {row.success_prob for row in build_link_plans(_certain(scenario)).values()} <= {0.0, 1.0}])
def test_a_run_with_certain_links_does_not_depend_on_its_seed(scenario):
    """R3, seed. With every packet outcome certain and no SNR jitter, a run
    reads no draw, so no seed can move an output: each node's stream ends
    where it started, and a second seed writes the same trace bytes, the
    same summary bar its seed fields, and the same bursts, eligible time and
    event count. One case per pinned run whose links are certain once
    mapped by `_certain`; a link still lossy there (etno3_lossy's -60 dBm
    radio) leaves its run out."""
    run = digest_runs.outputs(scenario)
    assert run["rng"] == [RngStream(scenario.seed, i + 1).getstate()
                          for i in range(scenario.node_count)]
    other = scenario.replace(seed=scenario.seed + 1)
    assert _seedless(digest_runs.outputs(other)) == _seedless(run)


def _cuts() -> dict:
    """Three instants in `(0, total_ns)` of each pinned run, by name, sorted,
    drawn in `runs()`' order from one `random.Random(7)`."""
    rng = random.Random(7)
    return {name: sorted(rng.randrange(1, seconds(scenario.total_duration_s)) for _ in range(3))
            for name, scenario in digest_runs.runs()}


CUTS = _cuts()


def test_the_cuts_are_pinned():
    """An edit that re-draws `CUTS` fails here, under its own name."""
    assert hashlib.sha256(repr(CUTS).encode()).hexdigest() == (
        "70907e7c7fb7c0bbdd37d5d0f35756e910bd0c98475bf053c33fd1f005380e58")


@pytest.mark.parametrize("name, scenario", [
    pytest.param(name, scenario, id=name) for name, scenario in digest_runs.runs()])
def test_a_run_cut_and_resumed_anywhere_keeps_its_pin(name, scenario):
    """R6, cut anywhere. A run stopped at each of its `CUTS` by
    `Engine.run_until`, and at the second continued from a `pickle` round
    trip of its `_Controller`, then run to its end, writes its pin line,
    with no tolerance. A cut is a horizon that no config places: every
    shortcut that runs ahead of the queue (a stretch, the 1 Hz tick it
    crosses) stops at the horizon that `Engine.head` gives it, and queues
    its next events there, which then run as the shortcut would have run
    them (tests/test_shortcuts.py); `spied_bursts` records the bursts in
    one run-length form wherever the stretches stop. A stretch cut in two
    settles its bursts in more products, which can differ from one in the
    last bit, as the shortcut harness allows: for these cuts, no such
    difference reaches the trace's nine significant digits or the
    summary's twelve decimals. The round trip copies the controller with
    everything the run holds, the objects the nodes share (the table's
    rows, the lumps, the engine) still shared. A straight run makes the
    same three steps: start, `run_until` the end, finalize."""
    controller = _Controller(scenario, Engine())
    with spied_bursts() as bursts:
        controller.start()
        for index, cut in enumerate(CUTS[name]):
            controller.engine.run_until(cut)
            if index == 1:
                controller = pickle.loads(pickle.dumps(controller))
        controller.engine.run_until(controller.total_ns)
        record = controller.finalize()
    assert digest_runs.line(name, digest_runs.gathered(controller, record, bursts)) \
        == PINNED_LINES[name]
