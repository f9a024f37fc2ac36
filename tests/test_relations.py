"""Metamorphic relations between two runs of every pinned run.

A declared model change regenerates tests/data/digest_runs.txt, after which
the pins check only that the new model is deterministic. A relation between
two runs of one source tree holds whatever the pins say, so it still sees an
error that a re-pin would bless: a joule term that is not scaled like the
others, or a rule that reads a node count it should not.
"""

import json

from hybridsim import runner
from hybridsim.metrics import NodeMetrics
from conftest import digest_runs, metrics_fields

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


def test_doubling_every_energy_doubles_every_joule_and_keeps_the_rest():
    """R1, energy scale. Every joule of the model is a product of a current
    and the supply voltage over a time, or of a harvest power over a time,
    or a fraction of the battery capacity (its start and its threshold),
    and the run adds, subtracts, clamps and compares joules only with each
    other and divides them only by the capacity or by a joule step. So
    doubling the voltage, the capacity and the harvest doubles every joule
    and changes no decision: every integer, label, burst record and
    eligible time stays. Doubling a float is exact in binary, and
    every float operation on joules commutes with it, so this is equality,
    not a tolerance."""
    failed = []
    for name, scenario in digest_runs.runs():
        plain, doubled = runner.run(scenario), runner.run(_doubled(scenario))
        if (plain.events_executed != doubled.events_executed
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
