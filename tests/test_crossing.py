"""A streaming node runs its stretch of bursts on through the 1 Hz world tick.

With crossings turned off, every stretch stops at the tick and the queue runs
the burst that stops it. Every output must be the same either way: the trace
and summary bytes, the burst log, the transmit-eligible time, the event
count and each node's random stream.
"""

import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hybridsim.kernel import NS_PER_SEC, Engine, EventKind
from hybridsim.metrics import write_traces
from hybridsim.node import SimNode
from hybridsim.runner import _Controller
from hybridsim.scenario import Scenario, load_scenario, preset_path
from test_invariants import scenarios

PRESETS = ("paper_fig11", "paper_fig11b", "paper_fig12", "paper_fig12b",
           "paper_fig13", "paper_fig13b")


def fleet(seed: int) -> Scenario:
    """The 64-node EUNO fleet that perfbench generates for `seed`: 5 s slots
    and a harvest profile drawn in antithetic 60 s segments."""
    rng = random.Random(seed)
    segments = []
    for _ in range(9):
        mw = rng.uniform(0.5, 20.0)
        segments += [mw, 20.5 - mw]
    profile = tuple((60.0 * i, float(f"{mw:.9g}") * 1e-3) for i, mw in enumerate(segments))
    return Scenario(node_count=64, seed=seed, optimizer="euno",
                    inter_transmission_sleep=False, target_rate_kbps=32.0,
                    conservation_rate_kbps=8.0, poll_slot_s=5.0, initial_fraction=0.5,
                    harvest_profile=profile, snr_jitter_db=2.0)


@st.composite
def tie_prone(draw) -> Scenario:
    """Scenarios drawn like `scenarios()`. Half of them send a packet every
    100 or 50 ms with a 50 or 25 ms optical burst, slots of 2, 2.05 or 5 s,
    a start at 0, 0.95 or 1 s and no inter-transmission sleep, so each slot's
    stream starts at the slot and burst ends and packet-readies fall on the
    1 Hz tick: 50 ms bursts every 100 ms from 0.05 s before a whole second
    end there. A quarter start full under a harvest that outruns the draw,
    so a tick's harvest would clamp at capacity."""
    scenario = draw(scenarios())
    if draw(st.integers(0, 3)) == 0:
        scenario = scenario.replace(initial_fraction=1.0, harvest_mw=30.0, harvest_profile=())
    if draw(st.booleans()):
        rate = draw(st.sampled_from([40.96, 81.92]))  # 4,096-bit packets
        scenario = scenario.replace(
            target_rate_kbps=rate,
            conservation_rate_kbps=min(scenario.conservation_rate_kbps, rate),
            owc_phy_rate_kbps=draw(st.sampled_from([81.92, 163.84])),
            poll_slot_s=draw(st.sampled_from([2.0, 2.05, 5.0])),
            init_delay_s=draw(st.sampled_from([0.0, 0.95, 1.0])),
            inter_transmission_sleep=False)
    return scenario


def _outputs(scenario: Scenario) -> dict:
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
        "rng": [node.rng._rng.getstate() for node in controller.nodes],
    }


def _counting(paths: Counter):
    """`SimNode._crosses`, counting each stretch stopped at a world tick
    inside its burst's window by what became of it: crossed inside the
    burst, after it, or at the next packet-ready; or declined on the
    burst's end, or for a battery edge or a clamp in reach."""
    decide = SimNode._crosses

    def spy(node, tick, after, now, airtime, interval, remaining, window_j):
        crosses = decide(node, tick, after, now, airtime, interval, remaining, window_j)
        if tick is None or tick.kind is not EventKind.HARVEST_TICK:
            return crosses
        at, ready = tick.fire_at, now + interval
        if crosses:
            paths["inside" if at < now + airtime else "ready" if at == ready else "before"] += 1
        elif at == now + airtime:
            paths["tie"] += 1
        elif now < at <= ready < after and interval < NS_PER_SEC:
            paths["margin"] += 1
        return crosses

    return spy


def _compare(scenario: Scenario, paths: Counter) -> None:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimNode, "_crosses", lambda *args: False)
        queued = _outputs(scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimNode, "_crosses", _counting(paths))
        crossed = _outputs(scenario)
    assert crossed == queued


@pytest.mark.parametrize("scenario, ran", [
    *(pytest.param(load_scenario(preset_path(name)), ("before", "inside"), id=name)
      for name in PRESETS),
    pytest.param(fleet(1), ("before",), id="fleet-seed-1"),
    # 100 ms packets with 50 ms optical bursts in 2.05 s slots: in every
    # other slot the bursts end on the ticks, which stay queued; in the rest
    # packet-readies fall there, and the stretch crosses them.
    pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2,
                          optimizer="etno", inter_transmission_sleep=False,
                          target_rate_kbps=40.96, conservation_rate_kbps=20.0,
                          owc_phy_rate_kbps=81.92, poll_slot_s=2.05), ("tie", "ready"), id="ties"),
])
def test_crossing_the_tick_changes_no_output(scenario, ran):
    paths = Counter()
    _compare(scenario, paths)
    assert all(paths[path] for path in ran), paths


def test_random_scenarios_cross_like_the_queue():
    paths = Counter()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tie_prone())
    def compare(scenario):
        _compare(scenario, paths)

    compare()
    # Every path ran: the burst ends before the tick, the tick falls inside
    # the burst or on the next packet-ready, and a tick on the burst's end or
    # one that would reach a battery edge or a clamp is left to the queue.
    assert all(paths[path] for path in ("before", "inside", "ready", "tie", "margin")), paths
