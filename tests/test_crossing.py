"""A streaming node runs its stretch of bursts on through the 1 Hz world tick.

With crossings turned off, every stretch stops at the tick and the queue runs
the burst that stops it. Every output must be the same either way: the trace
and summary bytes, the burst log, the transmit-eligible time, the event
count and each node's random stream.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hybridsim.kernel import NS_PER_SEC, EventKind
from hybridsim.node import SimNode
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, fleet
from test_invariants import scenarios

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


def _counting(paths: Counter):
    """`SimNode._crosses`, counting each stretch stopped at a world tick
    inside its burst's window by what became of it: crossed inside the
    burst, after it, or at the next packet-ready, and among those crossed
    on the burst's end (`end`) or with a harvest that would fill the buffer
    from its level at the burst's start (`clamp`); or declined for a
    battery edge in reach (`margin`)."""
    decide = SimNode._crosses

    def spy(node, tick, after, now, interval, remaining, window_j):
        crosses = decide(node, tick, after, now, interval, remaining, window_j)
        if tick is None or tick.kind is not EventKind.HARVEST_TICK:
            return crosses
        at, ready, end = tick.fire_at, now + interval, now + node.plan.airtime_ns
        if crosses:
            paths["inside" if at < end else "ready" if at == ready else "before"] += 1
            paths["end"] += at == end
            paths["clamp"] += tick.payload > node.buffer.capacity_j - remaining
        elif now < at <= ready < after and interval < NS_PER_SEC:
            paths["margin"] += 1
        return crosses

    return spy


def _compare(scenario: Scenario, paths: Counter) -> None:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimNode, "_crosses", lambda *args: False)
        queued = digest_runs.outputs(scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimNode, "_crosses", _counting(paths))
        crossed = digest_runs.outputs(scenario)
    assert crossed == queued


@pytest.mark.parametrize("scenario, ran", [
    *(pytest.param(load_scenario(preset_path(name)), ("before", "inside"), id=name)
      for name in digest_runs.PRESETS),
    pytest.param(fleet(1), ("before",), id="fleet-seed-1"),
    # 100 ms packets with 50 ms optical bursts in 2.05 s slots: in every
    # other slot the bursts end on the ticks, and in the rest packet-readies
    # fall there; the stretch crosses both.
    pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2,
                          optimizer="etno", inter_transmission_sleep=False,
                          target_rate_kbps=40.96, conservation_rate_kbps=20.0,
                          owc_phy_rate_kbps=81.92, poll_slot_s=2.05), ("end", "ready"), id="ties"),
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
    # the burst, on its end or on the next packet-ready, a crossed tick's
    # harvest would clamp, and a tick that would reach a battery edge is left
    # to the queue.
    assert all(paths[path] for path in ("before", "inside", "ready", "end", "clamp",
                                        "margin")), paths
