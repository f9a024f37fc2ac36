"""The peripheral chain steps of many nodes that end at one instant are
queued as one batch (`Engine.schedule_batched`).

With batching turned off, every member is queued as an event of its own.
Every output must be the same either way: the trace and summary bytes, the
burst log, the transmit-eligible time, the event count and each node's
random stream.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from hybridsim.kernel import Engine, SimEvent
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, fleet
from test_invariants import scenarios

DATA = Path(__file__).parent / "data"


def _unbatched(engine, fire_at, target, kind, item):
    """`Engine.schedule_batched` that always queues a fresh batch of one."""
    engine.schedule(SimEvent(fire_at, target, kind, [item], batched=True))


def _run(scenario: Scenario, batched: bool) -> tuple[dict, int]:
    """The run's outputs, and how many entries it queued."""
    queued = 0
    schedule = Engine.schedule

    def counted(engine, event):
        nonlocal queued
        queued += 1
        return schedule(engine, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "schedule", counted)
        if not batched:
            patch.setattr(Engine, "schedule_batched", _unbatched)
        return digest_runs.outputs(scenario), queued


def _compare(scenario: Scenario) -> tuple[int, int]:
    """Assert equal outputs with batching off and on; return the entries
    each queued."""
    alone, queued_alone = _run(scenario, batched=False)
    batched, queued_batched = _run(scenario, batched=True)
    assert batched == alone
    return queued_alone, queued_batched


@pytest.mark.parametrize("scenario", [
    *(pytest.param(load_scenario(preset_path(name)), id=name) for name in digest_runs.PRESETS),
    *(pytest.param(load_scenario(path), id=path.stem) for path in sorted(DATA.glob("*.cfg"))),
    *(pytest.param(fleet(seed), id=f"fleet-seed-{seed}") for seed in (1, 2, 3)),
])
def test_batching_chain_steps_changes_no_output(scenario):
    # The world's peripheral cycle runs only without inter-transmission
    # sleep. It starts every parked node's chain at once, and those steps
    # share entries, so it can batch only when at least two parked nodes
    # start chains: with more than two nodes, as one holds the slot.
    queued_alone, queued_batched = _compare(scenario)
    if not scenario.inter_transmission_sleep and scenario.node_count > 2:
        assert queued_batched < queued_alone
    else:
        assert queued_batched <= queued_alone


def test_random_scenarios_batch_like_the_queue():
    queued = [0, 0]

    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def compare(scenario):
        for i, count in enumerate(_compare(scenario)):
            queued[i] += count

    compare()
    assert queued[1] < queued[0]  # some draws batched their chain steps
