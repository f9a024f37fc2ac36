"""The run's six shortcuts, checked against runs without them.

Five are byte-identical. A streaming node's stretch of bursts runs on
through the 1 Hz world tick (`SimNode._crosses`), the peripheral chain steps
of many nodes that end at one instant share one queue entry
(`Engine.schedule_batched`), the world tick settles a node whose draw
and harvest reach no battery edge and do not clamp inline (`tick_nodes`),
every other settle (a packet's or a burst's end, a slot's entry or exit, a
policy period, a peripheral cycle, a chain step's end) writes a draw that
reaches no battery edge in place (`SimNode.sync`), and the draws of a
certain packet outcome are owed until the node's stream is next read
(`RngStream.count_below`). With all five off, every stretch stops at the
tick and the queue runs the burst that stops it, every chain step is an
entry of its own, every node ticks through `sync`, `EnergyBuffer.harvest`
and `sample`, every settle draws through `EnergyBuffer.consume`, and every
draw is made at once. Every output must be the same
either way: the trace and summary bytes, the burst log, the
transmit-eligible time, the event count and each node's random stream.

The sixth is the stretch itself (`SimNode._run_stretch`): a node runs the
bursts that raise no battery edge inline, up to the next queued event, and
settles each run of them as one product. With it off too, every burst's end
and packet-ready go through the queue, which settles burst by burst, so the
two runs are compared to rounding: the event count, each node's random
stream and its metrics are equal but the energies, which agree within 1e-9
relative and 1e-12 J, and the burst logs compare burst by burst, since a
stretch logs one record per run of bursts.

A new byte-identical shortcut adds its switch to `_shortcuts_off` and its
path counter to `_count_paths`; one that is not byte-identical adds its
switch beside the stretch's in `_compare` and its tolerance to
`_assert_agree`.
"""

import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings

from hybridsim import runner
from hybridsim.energy import EnergyBuffer
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, RngStream, SimEvent
from hybridsim.node import SimNode
from hybridsim.optimizer import UtilityWeights
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, fleet, metrics_fields, tick_each_node, tx_bursts
from test_invariants import tie_prone

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
    count_below = RngStream.count_below

    def drawn_at_once(stream, n, p):
        below = count_below(stream, n, p)
        stream._settle()  # skips what the call owed
        return below

    patch.setattr(SimNode, "_crosses", lambda *args: False)
    patch.setattr(RngStream, "count_below", drawn_at_once)
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
    certain packet outcome owes its draws (`owing`), and a node's generator
    skips owed draws while the queue runs (`skips`, its `getrandbits`
    calls), which `_compare` sorts into the run's `owed` or `settled`. A
    `SimNode.sync` that draws writes the draw in place (`sync-inline`) or
    through `EnergyBuffer.consume` (`sync-consume`); a policy period, a
    peripheral cycle and a chain step's end each count the battery-low
    edges that their settles raised (`policy-low`, `peripheral-low`,
    `chain-low`)."""
    crosses, schedule_batched = SimNode._crosses, Engine.schedule_batched
    tick_nodes, harvest = runner.tick_nodes, EnergyBuffer.harvest
    init, count_below, run_until = RngStream.__init__, RngStream.count_below, Engine.run_until
    sync, consume, on_battery_low = SimNode.sync, EnergyBuffer.consume, SimNode._on_battery_low
    running, passes, settles, lows = [], [], [], [0]

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
        fallback = paths["fallback"]
        tick_nodes(nodes, now, harvest_j)
        paths["inline"] += len(nodes) - (paths["fallback"] - fallback)

    def settling(buffer, joules):
        paths["fallback"] += 1
        return harvest(buffer, joules)

    def spied(stream, seed, stream_id):
        init(stream, seed, stream_id)
        skip = stream._rng.getrandbits

        def counted(k):
            paths["skips"] += bool(running)
            return skip(k)
        stream._rng.getrandbits = counted

    def owing(stream, n, p):
        paths["owing"] += n > 0 and not 0.0 < p < 1.0
        return count_below(stream, n, p)

    def run(engine, end):
        running.append(end)
        run_until(engine, end)
        running.pop()

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

    def consuming(buffer, joules):
        if settles:  # else a poll command's draw, outside any settle
            settles[-1] = True
        return consume(buffer, joules)

    def edge(node, now):
        lows[0] += 1
        on_battery_low(node, now)

    patch.setattr(SimNode, "_crosses", crossing)
    patch.setattr(Engine, "schedule_batched", batching)
    patch.setattr(runner, "tick_nodes", ticking)
    patch.setattr(EnergyBuffer, "harvest", settling)
    patch.setattr(RngStream, "__init__", spied)
    patch.setattr(RngStream, "count_below", owing)
    patch.setattr(Engine, "run_until", run)
    patch.setattr(runner._Controller, "evaluate", passing("policy", runner._Controller.evaluate))
    patch.setattr(runner, "start_peripheral_cycles",
                  passing("peripheral", runner.start_peripheral_cycles))
    patch.setattr(runner, "end_chain_steps", passing("chain", runner.end_chain_steps))
    patch.setattr(SimNode, "sync", syncing)
    patch.setattr(EnergyBuffer, "consume", consuming)
    patch.setattr(SimNode, "_on_battery_low", edge)


def _finished(run, scenario: Scenario) -> tuple:
    """`run(scenario)`, and the run's controller once finalized."""
    controllers, finalize = [], runner._Controller.finalize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner._Controller, "finalize",
                      lambda controller: controllers.append(controller) or finalize(controller))
        return run(scenario), controllers[0]


def _assert_agree(queued: runner._Controller, stretched: runner._Controller) -> None:
    """The event count, each node's random stream and every `NodeMetrics`
    field of the two finished runs are equal, each burst log expanded to its
    bursts, but the energies (the samples', the joules each clamped tick
    took and the totals)."""
    assert queued.engine.events_executed == stretched.engine.events_executed
    energies = ("consumed_j", "harvested_j", "remaining_j", "initial_j")
    blank = dict.fromkeys(("values", "clamped_j", "bursts", *energies))
    for node, other in zip(queued.nodes, stretched.nodes):
        assert node.rng.getstate() == other.rng.getstate(), node.name
        a, b = node.metrics, other.metrics
        assert (metrics_fields(a, tx_intervals=tx_bursts(a), **blank)
                == metrics_fields(b, tx_intervals=tx_bursts(b), **blank)), a.name
        x, y = ([*nm.values, *nm.clamped_j, *(getattr(nm, name) for name in energies)]
                for nm in (a, b))
        assert len(x) == len(y), a.name
        assert all(math.isclose(p, q, rel_tol=1e-9, abs_tol=1e-12) for p, q in zip(x, y)), a.name


def _compare(scenario: Scenario, paths: Counter) -> None:
    """Run `scenario` with all six shortcuts off, with the stretch alone on,
    and as shipped under the path counters, and compare the three runs.
    Count too what the run did: a stretch logged a run of bursts with their
    spacing, a node slept or none did, a packet was lost or none was, and a
    run that owed draws paid none of them while it ran, leaving them all to
    the `getstate` that `digest_runs.outputs` makes (`owed`), or paid some
    (`settled`)."""
    with pytest.MonkeyPatch.context() as patch:
        _shortcuts_off(patch)
        plain, stretched = _finished(digest_runs.outputs, scenario)
        patch.setattr(SimNode, "_run_stretch", lambda node, now, plan: now)  # runs no burst
        _assert_agree(_finished(runner.run, scenario)[1], stretched)
    shipped = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _count_paths(patch, shipped)
        assert digest_runs.outputs(scenario) == plain
    paths.update(shipped)
    if shipped["owing"]:
        paths["settled" if shipped["skips"] else "owed"] += 1
    metrics = [node.metrics for node in stretched.nodes]
    paths["stretch"] += any(period for nm in metrics for _, period, _, _ in nm.tx_intervals)
    paths["slept" if any(nm.sleep_entries for nm in metrics) else "awake"] += 1
    paths["lost" if any(nm.packets_lost for nm in metrics) else "lossless"] += 1


# 100 ms packets with 50 ms optical bursts in 2.05 s slots: in every other
# slot the bursts end on the ticks, and in the rest packet-readies fall there;
# the stretch crosses both.
TIES = Scenario(duration_s=30.0, init_delay_s=0.0, node_count=2, optimizer="etno",
                inter_transmission_sleep=False, target_rate_kbps=40.96,
                conservation_rate_kbps=20.0, owc_phy_rate_kbps=81.92, poll_slot_s=2.05)


# The optical link is lossless and the radio at -51 dBm delivers about 60 %
# of packets.
OUTCOME_PAYS_THE_DEBT = Scenario(duration_s=60.0, init_delay_s=1.0, node_count=2, seed=3,
                                 optimizer="etno", inter_transmission_sleep=False,
                                 battery_capacity_j=0.2, harvest_mw=20.0, ble_tx_power_dbm=-51.0)


@pytest.mark.parametrize("scenario, ran", [
    # Both preset links are lossless and the presets draw no SNR jitter, so
    # their streams owe every draw to the end; fleet64's jitter pays its debts.
    *(pytest.param(load_scenario(preset_path(name)), ("before", "inside", "owed"), id=name)
      for name in digest_runs.PRESETS),
    *(pytest.param(load_scenario(path), ("before", "settled") if path.stem == "fleet64" else (),
                   id=path.stem) for path in sorted(DATA.glob("*.cfg"))),
    *(pytest.param(fleet(seed), (), id=f"fleet-seed-{seed}") for seed in (2, 3)),
    pytest.param(TIES, ("end", "ready"), id="ties"),
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
    # With no SNR jitter, only a packet outcome reads a stream, so the run
    # pays what a node owes on the optical link with its first outcome on
    # the radio, in ETNO's conservation mode.
    pytest.param(OUTCOME_PAYS_THE_DEBT, ("settled", "lost"), id="outcome-pays-the-debt"),
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
                          distance_m=30.0, ble_tx_power_dbm=-60.0), ("awake", "lost"),
                 id="lossy-links"),
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
    paths = Counter()

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @seed(2026)
    @given(tie_prone())
    # About one draw in 20 crosses a tick on a burst's end, so the tie case
    # joins the 80 draws, which a fixed seed keeps the same through an edit.
    @example(TIES)
    def compare(scenario):
        _compare(scenario, paths)

    compare()
    # Every path ran: the burst ends before the tick, the tick falls inside
    # the burst, on its end or on the next packet-ready, a crossed tick's
    # harvest would clamp, a tick that would reach a battery edge is left to
    # the queue; chain steps shared a batch; a tick settled nodes inline and
    # through `EnergyBuffer.harvest`; `SimNode.sync` drew in place and
    # through `EnergyBuffer.consume`; stretches ran, in runs where nodes
    # slept and lost packets and in runs where none did; runs owed draws to
    # their end, and runs paid owed draws as they ran.
    assert all(paths[path] for path in ("before", "inside", "ready", "end", "clamp", "margin",
                                        "batched", "inline", "fallback", "sync-inline",
                                        "sync-consume", "stretch", "slept", "awake", "lost",
                                        "lossless", "owed", "settled")), paths


@pytest.mark.parametrize("scenario, lossy", [
    *(pytest.param(load_scenario(preset_path(name)), False, id=name)
      for name in digest_runs.PRESETS),
    pytest.param(load_scenario(DATA / "etno3_lossy.cfg"), True, id="etno3_lossy"),
    pytest.param(OUTCOME_PAYS_THE_DEBT, True, id="outcome-pays-the-debt"),
])
def test_a_stretch_draws_its_outcomes_in_one_call_at_its_end(scenario, lossy, monkeypatch):
    # A stretch draws every outcome it sent in one `count_below` call as it
    # returns, which is the draws of the queued bursts, in order, only if
    # nothing else reads the node's stream while the stretch runs: neither
    # a normal draw, nor another outcome, nor its state.
    reads, stretches = [], []
    count_below, getstate, gauss = RngStream.count_below, RngStream.getstate, random.Random.gauss
    run_stretch = SimNode._run_stretch

    def counted(stream, n, p):
        reads.append((stream, n, p))
        return count_below(stream, n, p)

    def stated(stream):
        reads.append((stream, "getstate", None))
        return getstate(stream)

    def drawn(generator, *args, **kwargs):
        reads.append((generator, "normal", None))
        return gauss(generator, *args, **kwargs)

    def stretch(node, now, plan):
        first, logged = len(reads), len(node.metrics.bursts)
        left = run_stretch(node, now, plan)
        sent = sum(node.metrics.bursts[logged + 3::4])  # each record's burst count
        own = [read for read in reads[first:] if read[0] in (node.rng, node.rng._rng)]
        stretches.append((sent, own))
        assert own == ([(node.rng, sent, plan.success_prob)] if sent else []), node.name
        return left

    monkeypatch.setattr(RngStream, "count_below", counted)
    monkeypatch.setattr(RngStream, "getstate", stated)
    monkeypatch.setattr(random.Random, "gauss", drawn)
    monkeypatch.setattr(SimNode, "_run_stretch", stretch)
    runner.run(scenario)
    assert any(sent > 1 for sent, _ in stretches)
    assert any(0.0 < own[0][2] < 1.0 for sent, own in stretches if sent) == lossy
