"""The run's three byte-identical shortcuts, checked against one run without
any of them.

A streaming node's stretch of bursts runs on through the 1 Hz world tick
(`SimNode._crosses`), the peripheral chain steps of many nodes that end at
one instant share one queue entry (`Engine.schedule_batched`), and the world
tick settles a node whose draw and harvest reach no battery edge and do not
clamp inline (`tick_nodes`). With all three off, every stretch stops at the
tick and the queue runs the burst that stops it, every chain step is an
entry of its own, and every node ticks through `sync`, `EnergyBuffer.harvest`
and `sample`. Every output must be the same either way: the trace and
summary bytes, the burst log, the transmit-eligible time, the event count
and each node's random stream. A new byte-identical shortcut adds its
switch to `_shortcuts_off` and its path counter to `_count_paths`.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from hybridsim import runner
from hybridsim.energy import EnergyBuffer
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, SimEvent
from hybridsim.node import SimNode
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, fleet, tick_each_node
from test_invariants import tie_prone

DATA = Path(__file__).parent / "data"


def _shortcuts_off(patch) -> None:
    patch.setattr(SimNode, "_crosses", lambda *args: False)
    patch.setattr(Engine, "schedule_batched", lambda engine, fire_at, target, kind, item:
                  engine.schedule(SimEvent(fire_at, target, kind, [item], batched=True)))
    patch.setattr(runner, "tick_nodes", tick_each_node)


def _count_paths(patch, paths: Counter) -> None:
    """Count each shortcut's paths as shipped.

    A stretch stopped at a world tick inside its burst's window counts by
    what became of it: crossed inside the burst, after it, or at the next
    packet-ready, and among those crossed on the burst's end (`end`) or with
    a harvest that would fill the buffer from its level at the burst's start
    (`clamp`); or declined for a battery edge in reach (`margin`). A chain
    step that joins a batch queues no entry (`batched`). A ticked node is
    settled inline or through `EnergyBuffer.harvest` (`settled`)."""
    crosses, schedule_batched = SimNode._crosses, Engine.schedule_batched
    tick_nodes, harvest = runner.tick_nodes, EnergyBuffer.harvest

    def crossing(node, tick, after, now, interval, remaining, window_j):
        crossed = crosses(node, tick, after, now, interval, remaining, window_j)
        if tick is None or tick.kind is not EventKind.HARVEST_TICK:
            return crossed
        at, ready, end = tick.fire_at, now + interval, now + node.plan.airtime_ns
        if crossed:
            paths["inside" if at < end else "ready" if at == ready else "before"] += 1
            paths["end"] += at == end
            paths["clamp"] += tick.payload > node.buffer.capacity_j - remaining
        elif now < at <= ready < after and interval < NS_PER_SEC:
            paths["margin"] += 1
        return crossed

    def batching(engine, *args):
        queued = engine._seq
        schedule_batched(engine, *args)
        paths["batched"] += engine._seq == queued

    def ticking(nodes, now, harvest_j):
        settled = paths["settled"]
        tick_nodes(nodes, now, harvest_j)
        paths["inline"] += len(nodes) - (paths["settled"] - settled)

    def settling(buffer, joules):
        paths["settled"] += 1
        return harvest(buffer, joules)

    patch.setattr(SimNode, "_crosses", crossing)
    patch.setattr(Engine, "schedule_batched", batching)
    patch.setattr(runner, "tick_nodes", ticking)
    patch.setattr(EnergyBuffer, "harvest", settling)


def _compare(scenario: Scenario, paths: Counter) -> None:
    with pytest.MonkeyPatch.context() as patch:
        _shortcuts_off(patch)
        plain = digest_runs.outputs(scenario)
    with pytest.MonkeyPatch.context() as patch:
        _count_paths(patch, paths)
        assert digest_runs.outputs(scenario) == plain


@pytest.mark.parametrize("scenario, ran", [
    *(pytest.param(load_scenario(preset_path(name)), ("before", "inside"), id=name)
      for name in digest_runs.PRESETS),
    *(pytest.param(load_scenario(path), ("before",) if path.stem == "fleet64" else (),
                   id=path.stem) for path in sorted(DATA.glob("*.cfg"))),
    *(pytest.param(fleet(seed), (), id=f"fleet-seed-{seed}") for seed in (2, 3)),
    # 100 ms packets with 50 ms optical bursts in 2.05 s slots: in every
    # other slot the bursts end on the ticks, and in the rest packet-readies
    # fall there; the stretch crosses both.
    pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2,
                          optimizer="etno", inter_transmission_sleep=False,
                          target_rate_kbps=40.96, conservation_rate_kbps=20.0,
                          owc_phy_rate_kbps=81.92, poll_slot_s=2.05), ("end", "ready"), id="ties"),
])
def test_shortcuts_change_no_output(scenario, ran):
    # The world's peripheral cycle runs only without inter-transmission
    # sleep. It starts every parked node's chain at once, and those steps
    # share entries, so it can batch only when at least two parked nodes
    # start chains: with more than two nodes, as one holds the slot.
    if not scenario.inter_transmission_sleep and scenario.node_count > 2:
        ran = (*ran, "batched")
    paths = Counter()
    _compare(scenario, paths)
    assert all(paths[path] for path in (*ran, "inline")), paths


def test_random_scenarios_run_every_shortcut_path():
    paths = Counter()

    @settings(max_examples=80, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tie_prone())
    def compare(scenario):
        _compare(scenario, paths)

    compare()
    # Every path ran: the burst ends before the tick, the tick falls inside
    # the burst, on its end or on the next packet-ready, a crossed tick's
    # harvest would clamp, a tick that would reach a battery edge is left to
    # the queue; chain steps shared a batch; a tick settled nodes inline and
    # through `EnergyBuffer.harvest`.
    assert all(paths[path] for path in ("before", "inside", "ready", "end", "clamp", "margin",
                                        "batched", "inline", "settled")), paths
