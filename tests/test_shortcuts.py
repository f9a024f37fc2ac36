"""The run's five shortcuts, checked against runs without them.

Four are byte-identical. A streaming node's stretch of bursts runs on
through the 1 Hz world tick (`SimNode._crosses`), the peripheral chain steps
of many nodes that end at one instant share one queue entry
(`Engine.schedule_batched`), the world tick settles a node whose draw
and harvest reach no battery edge and do not clamp inline (`tick_nodes`),
and every other settle (a packet's or a burst's end, a slot's entry or
exit, a policy period, a peripheral cycle, a chain step's end) writes a
draw that reaches no battery edge in place (`SimNode.sync`). With all four
off, every stretch stops at the tick and the queue runs the burst that
stops it, every chain step is an entry of its own, every node ticks through
`sync`, `EnergyBuffer.harvest` and `sample`, and every settle draws through
`EnergyBuffer.consume`. Every output must be the same either way: the
trace and summary bytes, each node's bursts, the transmit-eligible time,
the event count and each node's random stream.

The fifth is the stretch itself (`SimNode._run_stretch`): a node runs the
bursts that raise no battery edge inline, up to the next queued event, and
settles each run of them as one product. With it off too, every burst's end
and packet-ready go through the queue, which settles burst by burst, so the
two runs are compared to rounding: the event count, each node's random
stream, its bursts and its metrics are equal but the energies, which agree
within 1e-9 relative and 1e-12 J. The bursts are those that
`digest_runs.spied_bursts` records, in one run-length form whatever the
stretches' stops, so the two runs' records are equal. A stretch draws every
outcome it sent in one `count_below` call as it returns, which equals the
queued bursts' draws only while nothing else reads the node's stream; the
shipped run checks that on every stretch (`_count_paths`), with `sent` taken
from the stretch's span.

Each of the three runs goes through `_Controller.run`. A new
byte-identical shortcut adds its switch to `_shortcuts_off` and its path
counter to `_count_paths`; one that is not byte-identical adds its switch
beside the stretch's in `_compare` and its tolerance to `_assert_agree`.
"""

import math
import random
from collections import Counter
from pathlib import Path

import pytest

from hybridsim import runner
from hybridsim.energy import EnergyBuffer
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, RngStream, SimEvent
from hybridsim.node import SimNode
from hybridsim.optimizer import UtilityWeights
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, fleet, metrics_fields, tick_each_node

DATA = Path(__file__).parent / "data"


def _sync_through_consume(node, now):
    """`SimNode.sync` with every draw through `EnergyBuffer.consume`."""
    elapsed = now - node._phase_since
    if elapsed <= 0:
        return
    node._phase_since = now
    if node.buffer.consume(node._joules(node._phase_ma, elapsed)) is EventKind.BATTERY_LOW:
        node._on_battery_low(now)


def _shortcuts_off(patch) -> None:
    patch.setattr(SimNode, "_crosses", lambda *args: False)
    patch.setattr(Engine, "schedule_batched", lambda engine, fire_at, target, kind, item:
                  engine.schedule(SimEvent(fire_at, target, kind, [item], batched=True)))
    patch.setattr(runner, "tick_nodes", tick_each_node)
    patch.setattr(SimNode, "sync", _sync_through_consume)


def _count_paths(patch, paths: Counter) -> None:
    """Count each shortcut's paths as shipped.

    A stretch stopped at a world tick inside its burst's window counts by
    what became of it: crossed inside the burst, after it, or at the next
    packet-ready, and among those crossed on the burst's end (`end`) or with
    a harvest that would fill the buffer from its level at the burst's start
    (`clamp`); or declined for a battery edge in reach (`margin`). A chain
    step that joins a batch queues no entry (`batched`). A ticked node is
    settled inline or through `EnergyBuffer.harvest` (`fallback`). A
    stretch's one `count_below(sent, p)` is the only read of the node's
    stream while it runs; counted are the stretches of more than one burst
    (`stretch`) and those at a certain or an uncertain outcome (`certain`,
    `uncertain`). A
    `SimNode.sync` that draws writes the draw in place (`sync-inline`) or
    through `EnergyBuffer.consume` (`sync-consume`); a policy period, a
    peripheral cycle and a chain step's end each count the battery-low
    edges that their settles raised (`policy-low`, `peripheral-low`,
    `chain-low`)."""
    crosses, schedule_batched = SimNode._crosses, Engine.schedule_batched
    tick_nodes, harvest = runner.tick_nodes, EnergyBuffer.harvest
    count_below, getstate = RngStream.count_below, RngStream.getstate
    gauss, run_stretch = random.Random.gauss, SimNode._run_stretch
    sync, consume, on_battery_low = SimNode.sync, EnergyBuffer.consume, SimNode._on_battery_low
    passes, settles, lows, reads = [], [], [0], []

    def crossing(node, tick, after, now, interval, remaining, *args):
        crossed = crosses(node, tick, after, now, interval, remaining, *args)
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

    def ticking(nodes, *args):
        fallback = paths["fallback"]
        tick_nodes(nodes, *args)
        paths["inline"] += len(nodes) - (paths["fallback"] - fallback)

    def settling(*args):
        paths["fallback"] += 1
        return harvest(*args)

    def drawing(stream, n, p):
        reads.append((stream, n, p))
        return count_below(stream, n, p)

    def stated(stream):
        reads.append((stream, "getstate"))
        return getstate(stream)

    def normal(generator, *args, **kwargs):
        reads.append((generator, "gauss"))
        return gauss(generator, *args, **kwargs)

    def stretch(node, now, plan):
        reads.clear()
        left = run_stretch(node, now, plan)
        sent = digest_runs.stretch_sent(now, left, plan)
        own = [read for read in reads if read[0] in (node.rng, node.rng._rng)]
        assert own == ([(node.rng, sent, plan.success_prob)] if sent else []), node.name
        paths["stretch"] += sent > 1
        paths["uncertain" if 0.0 < plan.success_prob < 1.0 else "certain"] += sent > 0
        return left

    def passing(name, world_pass):
        def named(*args):
            passes.append(name)
            try:
                world_pass(*args)
            finally:
                passes.pop()
        return named

    def syncing(node, now):
        if now <= node._phase_since:  # draws nothing
            return sync(node, now)
        low = lows[0]
        settles.append(False)
        sync(node, now)
        paths["sync-consume" if settles.pop() else "sync-inline"] += 1
        if passes:
            paths[f"{passes[-1]}-low"] += lows[0] > low

    def consuming(*args):
        if settles:  # else a poll command's draw, outside any settle
            settles[-1] = True
        return consume(*args)

    def edge(*args):
        lows[0] += 1
        on_battery_low(*args)

    patch.setattr(SimNode, "_crosses", crossing)
    patch.setattr(Engine, "schedule_batched", batching)
    patch.setattr(runner, "tick_nodes", ticking)
    patch.setattr(EnergyBuffer, "harvest", settling)
    patch.setattr(RngStream, "count_below", drawing)
    patch.setattr(RngStream, "getstate", stated)
    patch.setattr(random.Random, "gauss", normal)
    patch.setattr(SimNode, "_run_stretch", stretch)
    patch.setattr(runner._Controller, "evaluate", passing("policy", runner._Controller.evaluate))
    patch.setattr(runner, "start_peripheral_cycles",
                  passing("peripheral", runner.start_peripheral_cycles))
    patch.setattr(runner, "end_chain_steps", passing("chain", runner.end_chain_steps))
    patch.setattr(SimNode, "sync", syncing)
    patch.setattr(EnergyBuffer, "consume", consuming)
    patch.setattr(SimNode, "_on_battery_low", edge)


def _assert_agree(queued: runner._Controller, stretched: runner._Controller) -> None:
    """The event count, each node's random stream and every `NodeMetrics`
    field of the two finished runs are equal but the energies (the
    samples', the joules each clamped tick took and the totals)."""
    assert queued.engine.events_executed == stretched.engine.events_executed
    energies = ("consumed_j", "harvested_j", "remaining_j", "initial_j")
    blank = dict.fromkeys(("values", "clamped_j", *energies))
    for node, other in zip(queued.nodes, stretched.nodes):
        assert node.rng.getstate() == other.rng.getstate(), node.name
        a, b = node.metrics, other.metrics
        assert metrics_fields(a, **blank) == metrics_fields(b, **blank), a.name
        x, y = ([*nm.values, *nm.clamped_j, *(getattr(nm, name) for name in energies)]
                for nm in (a, b))
        assert len(x) == len(y), a.name
        assert all(math.isclose(p, q, rel_tol=1e-9, abs_tol=1e-12) for p, q in zip(x, y)), a.name


def _compare(scenario: Scenario, paths: Counter) -> None:
    """Run `scenario` with all five shortcuts off, with the stretch alone on,
    and as shipped under the path counters, and compare the three runs.
    Count too what the run did: a node slept or none did, and a packet was
    lost or none was."""
    with pytest.MonkeyPatch.context() as patch:
        _shortcuts_off(patch)
        stretched = runner._Controller(scenario, Engine())
        plain = digest_runs.outputs_of(stretched)
        patch.setattr(SimNode, "_run_stretch", lambda node, now, plan: now)  # runs no burst
        queued = runner._Controller(scenario, Engine())
        bursts = digest_runs.outputs_of(queued)["bursts"]
    _assert_agree(queued, stretched)
    assert bursts == plain["bursts"]
    shipped = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _count_paths(patch, shipped)
        assert digest_runs.outputs(scenario) == plain
    paths.update(shipped)
    metrics = [node.metrics for node in stretched.nodes]
    paths["slept" if any(nm.sleep_entries for nm in metrics) else "awake"] += 1
    paths["lost" if any(nm.packets_lost for nm in metrics) else "lossless"] += 1


# 100 ms packets with 50 ms optical bursts in 2.05 s slots: in every other
# slot the bursts end on the ticks, and in the rest packet-readies fall there;
# the stretch crosses both.
TIES = Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2, optimizer="etno",
                inter_transmission_sleep=False, target_rate_kbps=40.96,
                conservation_rate_kbps=20.0, owc_phy_rate_kbps=81.92, poll_slot_s=2.05)


@pytest.mark.parametrize("scenario, ran", [
    *(pytest.param(load_scenario(preset_path(name)), ("before", "inside"), id=name)
      for name in digest_runs.PRESETS),
    # etno3_lossy's optical link delivers about 64.5 % of packets at 30 m.
    *(pytest.param(load_scenario(path), {"fleet64": ("before",),
                                         "etno3_lossy": ("uncertain",)}.get(path.stem, ()),
                   id=path.stem) for path in sorted(DATA.glob("*.cfg"))),
    *(pytest.param(fleet(seed), (), id=f"fleet-seed-{seed}") for seed in (2, 3)),
    pytest.param(TIES, ("end", "ready"), id="ties"),
    # A lone node starts full under a harvest that outruns its draw, so a
    # crossed tick's harvest would fill the buffer from the burst's start.
    pytest.param(Scenario(duration_s=20.0, init_delay_s=0.0, node_count=1, optimizer="euno",
                          target_rate_kbps=40.96, conservation_rate_kbps=20.0,
                          owc_phy_rate_kbps=163.84, initial_fraction=1.0,
                          battery_capacity_j=0.5, harvest_mw=30.0),
                 ("clamp", "fallback", "awake"), id="crossed-tick-would-clamp"),
    # A lone node streams its small buffer down to the threshold, so a
    # stretch leaves a tick to the queue with a battery-low edge in reach.
    pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=1, optimizer="etno",
                          target_rate_kbps=40.96, conservation_rate_kbps=20.0,
                          owc_phy_rate_kbps=81.92, initial_fraction=0.4,
                          battery_capacity_j=0.2, harvest_mw=5.0),
                 ("margin", "before", "slept"), id="battery-edge-in-reach"),
    # Harvest ticks inside the 25 s slots stop stretches at the horizon.
    pytest.param(load_scenario(preset_path("paper_fig11")).replace(duration_s=60.0),
                 ("awake", "lossless"), id="fig11-awake"),
    pytest.param(load_scenario(preset_path("paper_fig12b")).replace(duration_s=60.0),
                 ("awake", "lossless"), id="fig12b-inter-transmission-sleep"),
    # A stretch stops before a draw that would cross the threshold: the
    # battery-low edge falls at a burst's end (losing the burst), or in the
    # idle gap between bursts. Other edges fall in the draw that a chain
    # step's end settles.
    *(pytest.param(Scenario(duration_s=60.0, init_delay_s=1.0, node_count=2, seed=3,
                            optimizer="etno", inter_transmission_sleep=False,
                            battery_capacity_j=capacity_j, harvest_mw=20.0),
                   ("slept", ran, "chain-low", "sync-consume"), id=name)
      for capacity_j, ran, name in ((0.2, "lost", "small-battery-mid-burst"),
                                    (0.1, "lossless", "small-battery-gap"))),
    # A battery-low edge falls in the draw that a policy period settles,
    # with the periods half a second after the 1 Hz ticks, and in the idle
    # draw up to a peripheral cycle.
    *(pytest.param(Scenario(duration_s=60.0, init_delay_s=init_s, node_count=2, seed=3,
                            optimizer="etno", inter_transmission_sleep=asleep,
                            battery_capacity_j=0.1, harvest_mw=harvest_mw),
                   (f"{name}-low", "slept", "sync-consume"), id=f"battery-low-at-{name}")
      for name, init_s, asleep, harvest_mw in (("policy", 0.5, True, 20.0),
                                               ("peripheral", 1.0, False, 5.0))),
    # The optical link is lossless and the radio at -51 dBm delivers about
    # 60 % of packets. With no SNR jitter, only a packet outcome reads a
    # stream: a node's bursts on the optical link draw nothing, and those on
    # the radio, in ETNO's conservation mode, draw.
    pytest.param(Scenario(duration_s=60.0, init_delay_s=1.0, node_count=2, seed=3,
                          optimizer="etno", inter_transmission_sleep=False,
                          battery_capacity_j=0.2, harvest_mw=20.0, ble_tx_power_dbm=-51.0),
                 ("lost", "certain", "uncertain"), id="certain-and-uncertain-links"),
    # ETNO resumes below f_c = 0.35, so the node streams until a draw would
    # run the buffer dry.
    pytest.param(Scenario(duration_s=60.0, init_delay_s=1.0, node_count=1, seed=3,
                          optimizer="etno", inter_transmission_sleep=False,
                          battery_capacity_j=0.2, harvest_mw=5.0,
                          weights=UtilityWeights(f_c=0.35)), ("slept", "lost", "sync-consume"),
                 id="runs-dry"),
    # 1 s slots end inside a burst, which then does not start; the gateway's
    # tick at the slot's end is also the horizon.
    pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2, optimizer="etno",
                          inter_transmission_sleep=False, poll_slot_s=1.0),
                 ("awake", "lossless"), id="slot-end"),
    # Optical success is about 0.645 at 30 m, and the radio's is 0.
    pytest.param(Scenario(duration_s=60.0, init_delay_s=1.0, node_count=2, seed=3,
                          optimizer="euno", inter_transmission_sleep=False,
                          distance_m=30.0, ble_tx_power_dbm=-60.0),
                 ("awake", "lost", "uncertain"), id="lossy-links"),
    # A 10 ms packet spacing puts a packet-ready on every 1 s tick; a 10 ms
    # airtime as well leaves no idle gap and puts burst ends there.
    *(pytest.param(Scenario(duration_s=30.0, init_delay_s=0.0, node_count=1, optimizer="etno",
                            inter_transmission_sleep=False, target_rate_kbps=409.6, **phy),
                   ("awake", "lossless"), id=name)
      for phy, name in (({}, "packet-ready-on-ticks"),
                        ({"owc_phy_rate_kbps": 409.6}, "back-to-back-bursts-on-ticks"))),
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
    assert all(paths[path] for path in (*ran, "inline", "sync-inline", "stretch")), paths


def test_random_scenarios_run_every_shortcut_path():
    # The tie case joins the first 80 tie-prone draws of digest_runs.py, 9 of
    # which cross a tick on a burst's end.
    paths = Counter()
    for scenario in [*digest_runs.drawn(digest_runs.tie_prone, 80), TIES]:
        _compare(scenario, paths)
    # Every path ran: the burst ends before the tick, the tick falls inside
    # the burst, on its end or on the next packet-ready, a crossed tick's
    # harvest would clamp, a tick that would reach a battery edge is left to
    # the queue; chain steps shared a batch; a tick settled nodes inline and
    # through `EnergyBuffer.harvest`; `SimNode.sync` drew in place and
    # through `EnergyBuffer.consume`; stretches ran, in runs where nodes
    # slept and lost packets and in runs where none did, some with an
    # uncertain outcome.
    assert all(paths[path] for path in ("before", "inside", "ready", "end", "clamp", "margin",
                                        "batched", "inline", "fallback", "sync-inline",
                                        "sync-consume", "stretch", "uncertain", "slept", "awake",
                                        "lost", "lossless")), paths
