"""Run invariants over the paper presets and random valid short scenarios.

`_checked_run` runs one input once and checks every invariant of that run:
after each dispatched event, under spies on the node's calls, and on the
run's record. Every run must finish without a ProtocolViolation, balance its
energy ledger to 1e-12 J at its end and on every trace row, end its
harvested_J column on the buffer's total, keep the buffer inside
[0, capacity] on every trace row, never lower the consumed and harvested
columns, sample once per whole second, count every modality change it
samples, achieve no more than the target rate, count no more
transmit-eligible time than the poll slots the node owned, and keep both
interfaces powered down while it sleeps; a second spent asleep away from any
tick draws exactly the sleep current. Its
bursts, as `digest_runs.spied_bursts` records them, must account for every
packet sent, each lie inside one of the node's own slots, and no two bursts
of the run may overlap. A new run
invariant is one more check there; the seed relation, between two runs, is
R3 in tests/test_relations.py. Each run goes through `_Controller.run`.
"""

import hashlib
from bisect import bisect_right
from collections import Counter
from weakref import WeakKeyDictionary

import pytest

from hybridsim import node as node_module, runner
from hybridsim.actions import Mode
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, seconds
from hybridsim.metrics import MetricsRecord
from hybridsim.node import CHAIN_STEPS, SimNode
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import _Controller
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, spied_bursts, tx_bursts

TOL = 1e-9
ASLEEP = ("SLEEP|OFF", "OFF|OFF")
INTERFACE_LABELS = {*ASLEEP, "IDLE|IDLE", "TX|IDLE", "IDLE|TX_BUSY"}


def slots_ns(scenario: Scenario, index: int) -> list[tuple[int, int]]:
    """The `(start, end)` ns of every poll slot that node `index` (0-based)
    held in the run.

    On the simulator's integer-nanosecond clock every slot lasts the poll
    slot rounded to whole nanoseconds, so slot k starts up to k / 2 ns away
    from init_delay_s + k * poll_slot_s."""
    slot_ns = seconds(scenario.poll_slot_s)
    total_ns = seconds(scenario.total_duration_s)
    owned, k, start = [], 0, seconds(scenario.init_delay_s)
    while start < total_ns:
        if k % scenario.node_count == index:
            owned.append((start, min(start + slot_ns, total_ns)))
        k += 1
        start += slot_ns
    return owned


def ticked_seconds(scenario: Scenario) -> set[int]:
    """Each whole second `k` with an optimizer or poll tick strictly inside
    `(k, k + 1)` s: between the node's 1 Hz samples at `k` and `k + 1`."""
    init, total = seconds(scenario.init_delay_s), seconds(scenario.total_duration_s)
    ticks = [*range(init, total + 1, seconds(scenario.weights.period_s)),
             *range(init, total + 1, seconds(scenario.poll_slot_s))]
    return {t // NS_PER_SEC for t in ticks if t % NS_PER_SEC}


def owned_slot_s(scenario: Scenario, index: int) -> float:
    """Seconds of poll slots that node `index` (0-based) held in the run."""
    return sum(end - start for start, end in slots_ns(scenario, index)) / NS_PER_SEC


# A shortened run with three ETNO nodes in 25 s slots; test_runner.py builds
# its nodes from it.
SHORT = Scenario(duration_s=200.0, init_delay_s=5.0, node_count=3, seed=3,
                 optimizer="etno", inter_transmission_sleep=False,
                 battery_capacity_j=2.0)

EXAMPLES = {
    "short": SHORT,
    # ETNO resumes at once after a battery-low edge when f_c is above its sleep
    # threshold; the optical interface must come back from OFF on the wake signal.
    "etno-owc-resumes": Scenario(duration_s=60.0, optimizer="etno-owc", battery_capacity_j=0.5,
                                 weights=UtilityWeights(f_c=0.35)),
    # A poll slot that is not a whole number of nanoseconds: the last node's cut-off
    # slot starts 2 ns early on the simulator's clock and so lasts 2 ns longer.
    "fractional-ns-slot": Scenario(duration_s=32.0, node_count=5, poll_slot_s=7.969890099404346),
    # A battery-charged edge while the node sleeps: it stays down until the policy wakes it.
    "charged-while-asleep": Scenario(
        duration_s=5.0, init_delay_s=0.0, node_count=1, poll_slot_s=1.0, battery_capacity_j=0.1,
        initial_fraction=0.5, harvest_mw=25.0, target_rate_kbps=36.0, conservation_rate_kbps=36.0),
    # Nodes asleep at the first poll tick without inter-transmission sleep: they
    # must keep drawing sleep current, not idle current, at OFF|OFF.
    "asleep-at-first-poll": Scenario(duration_s=30.0, node_count=3, initial_fraction=0.2,
                                     harvest_mw=1.0, inter_transmission_sleep=False),
    # A run that ends between two whole seconds, with no initial delay.
    "ends-mid-second": Scenario(duration_s=7.5, init_delay_s=0.0, node_count=2, poll_slot_s=2.0),
    # A lone node sending a packet every 10 ms under a harvest that outruns
    # its draw: the buffer clamps every tick's lump. (Over 600 s it moves 33 J
    # through the buffer and its ledger ends 1.35e-12 J off, by rounding.)
    "clamps-every-tick": Scenario(node_count=1, duration_s=60.0, init_delay_s=0.0,
                                  poll_slot_s=5.0, packet_bytes=512, target_rate_kbps=409.6,
                                  inter_transmission_sleep=False, harvest_mw=300.0),
    # ETNO with f_c 0.6 and 50 ms optical bursts every 50 ms: the 1 Hz tick at
    # 9.0 s raises node 2's battery-low edge inside its queued burst that
    # started at 8.96 s, which is lost before its end (`digest_runs.tie_prone`
    # draw 90).
    "lost-mid-burst": Scenario(
        duration_s=23.06603496086888, init_delay_s=1.0, seed=322, optimizer="etno",
        inter_transmission_sleep=False, target_rate_kbps=81.92, conservation_rate_kbps=81.92,
        owc_phy_rate_kbps=81.92, poll_slot_s=5.0, battery_capacity_j=0.2297214392972064,
        initial_fraction=0.6881056434922409, harvest_mw=3.4841303834953696,
        harvest_profile=((0.0, 0.01295092648564697), (10.0, 0.02562313248089448),
                         (20.0, 0.016560914662877055)),
        weights=UtilityWeights(f_c=0.6)),
}


@pytest.fixture
def seen(monkeypatch) -> Counter:
    """Counts of what the spies checked, with the spies on for the test.

    A live chain step sees the slot and the mode its chain started in, since
    a change of either bumps the epoch, and no chain starts asleep. EUNO and
    ETNO choose a row of the run's one table (`node.plans`), never a copy,
    and a node handed the row it holds changes nothing: no stale packet, no
    sleep entry, no modality switch. EUNO takes no active row on a dead link
    (success probability 0) while another active row of its table delivers.
    `park` signals only interfaces that the signal moves: a sleep signal
    only awake ones, a wake signal only asleep ones. A spy passes on the
    arguments it does not read."""
    counts, started = Counter(), WeakKeyDictionary()
    apply, euno_select = SimNode.apply_action, runner.euno_select
    run_chain, advance, dispatch = (SimNode._run_chain, SimNode._advance_chain,
                                    node_module.fsm_dispatch)

    def spy_apply(node, plan, *args):
        assert any(plan is row for row in node.plans.values()), (node.name, plan)
        kept = plan is node.plan
        before = (node._epoch, node.metrics.sleep_entries, node.metrics.modality_switches)
        apply(node, plan, *args)
        counts[plan.mode] += 1
        counts["rows"] += 1
        if kept:
            counts["kept"] += 1
            assert (node._epoch, node.metrics.sleep_entries,
                    node.metrics.modality_switches) == before, node.name

    def spy_euno(table, *args):
        row = euno_select(table, *args)
        live = {r.success_prob > 0.0 for scored in table.rows.values() for *_, r in scored
                if r.mode is not Mode.SLEEP}
        if live == {True, False}:  # a dead link beside a live one
            assert row.mode is Mode.SLEEP or row.success_prob > 0.0, row
            counts["dead link"] += 1
        return row

    def spy_run_chain(node, *args):
        assert node.plan.mode is not Mode.SLEEP
        started[node] = (node.plan.mode, node.in_slot)
        counts["chains"] += 1
        run_chain(node, *args)

    def spy_advance(node, *args):  # a chain's start, or the end of a live step
        assert (node.plan.mode, node.in_slot) == started[node], node.name
        counts["steps"] += 1
        advance(node, *args)

    def spy_dispatch(current, kind, *args):
        after = dispatch(current, kind, *args)
        if kind in (EventKind.SLEEP_SIGNAL, EventKind.WAKE_SIGNAL):
            assert after is not current, (kind, current)
            counts[kind] += 1
        return after

    monkeypatch.setattr(SimNode, "apply_action", spy_apply)
    monkeypatch.setattr(runner, "euno_select", spy_euno)
    monkeypatch.setattr(SimNode, "_run_chain", spy_run_chain)
    monkeypatch.setattr(SimNode, "_advance_chain", spy_advance)
    monkeypatch.setattr(node_module, "fsm_dispatch", spy_dispatch)
    return counts


def _checked_run(scenario: Scenario, seen: Counter) -> MetricsRecord:
    """Run `scenario` once under the spies of `seen` and `spied_bursts`
    and check every run invariant: two after each dispatched event, then
    each per-run and per-sample one on the run's record, which it returns.
    It counts each battery-low edge that loses a burst before the burst's
    nominal end (`lost mid-burst`).

    After every event, each node's transmit-eligible segment is open iff it
    holds its slot in a mode other than sleep: every change of either
    settles through `SimNode._reconcile`, which keeps the two in step. And
    each node has at most one chain step queued under its current epoch: a
    chain starts only from `_reconcile`, which bumps the epoch, or from a
    new peripheral cycle, which bumps it to stop a chain still running. So
    a chain's end, which streams or idles, acts once."""
    engine = Engine()
    controller = _Controller(scenario, engine)
    dispatch = engine.dispatch_head

    def dispatch_head():
        dispatch()
        for node in controller.nodes:
            assert (node._eligible_since is not None) == (
                node.in_slot and node.plan.mode is not Mode.SLEEP), (node.name, engine.now)
        steps = [member for _, _, event in engine._heap if event.target == CHAIN_STEPS
                 for member in event.payload]
        live = Counter(node for node, epoch in steps if epoch == node._epoch)
        assert max(live.values(), default=0) <= 1, (live, engine.now)
        seen["eligible"] += len(controller.nodes)
        seen["live"] += len(live)
        seen["stale"] += len(steps) - sum(live.values())

    engine.dispatch_head = dispatch_head  # `run_until` and a stretch both call it
    on_battery_low = SimNode._on_battery_low

    def edge(node, now):
        if node.tx_in_flight:
            start, period, length, count = bursts[node.name][-1]
            seen["lost mid-burst"] += now < start + (count - 1) * period + length
        on_battery_low(node, now)

    with spied_bursts() as bursts, pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimNode, "_on_battery_low", edge)
        record = controller.run()

    capacity = scenario.battery_capacity_j
    sleep_j = scenario.sleep_current_ma * 1e-3 * scenario.supply_voltage  # per second
    ticked = ticked_seconds(scenario)
    # The trace stores no time column: sample `i` is at `t_s = i`.
    samples = seconds(scenario.total_duration_s) // NS_PER_SEC + 1
    everyone = []
    for index in range(scenario.node_count):
        nm = record.node(index + 1)
        rows = nm.rows  # built afresh on each read
        # Two doubles and one label code per sample.
        assert len(nm.codes) == samples and len(nm.values) == 2 * samples, nm.name
        assert [row.t_s for row in rows] == list(range(samples)), nm.name
        # At most one interface transmits, and every signal moves both.
        assert {row.fsm_state for row in rows} <= INTERFACE_LABELS, nm.name
        ledger = nm.initial_j + nm.harvested_j - nm.consumed_j
        assert abs(nm.remaining_j - ledger) <= 1e-12, nm.name
        # Every sample balances too, and the harvested_J column, summed from
        # the run's lumps and the node's clamped ticks, ends on the buffer's
        # own total, bit for bit.
        assert all(abs(row.remaining_j - (nm.initial_j + row.harvested_j - row.consumed_j))
                   <= 1e-12 for row in rows), nm.name
        assert rows[-1].harvested_j.hex() == nm.harvested_j.hex(), nm.name
        seen["clamped"] += len(nm.clamped_at)
        assert all(0.0 <= row.remaining_j <= capacity for row in rows), nm.name
        # 1 Hz sampling can only miss a modality change, never add one.
        assert sum(a.modality != b.modality for a, b in zip(rows, rows[1:])) <= nm.modality_switches
        assert nm.achieved_rate_kbps <= scenario.target_rate_kbps + 1e-9
        if nm.eligible_s > 0:
            assert nm.achieved_rate_kbps == nm.bytes_delivered * 8 / nm.eligible_s / 1e3
        assert nm.eligible_s <= owned_slot_s(scenario, index) * (1 + TOL) + TOL
        # A burst caught in flight ends before its interface sleeps.
        assert all(row.fsm_state in ASLEEP for row in rows
                   if row.mode == "sleep" and "TX" not in row.fsm_state), nm.name
        # The consumed and harvested columns never fall. A node asleep at two
        # consecutive samples, with one second of sleep draw stored and no
        # optimizer or poll tick between them, drew exactly sleep current for
        # that second.
        for a, b in zip(rows, rows[1:]):
            assert a.consumed_j <= b.consumed_j and a.harvested_j <= b.harvested_j, nm.name
            if (a.mode == b.mode == "sleep" and a.fsm_state in ASLEEP
                    and b.fsm_state in ASLEEP and a.remaining_j >= sleep_j
                    and int(a.t_s) not in ticked):
                assert b.consumed_j - a.consumed_j == pytest.approx(sleep_j, rel=TOL), \
                    (nm.name, a.t_s)
        # Every burst sent is delivered, lost on the link, or lost to a
        # battery-low edge.
        sent = tx_bursts(bursts.get(nm.name, []))
        assert len(sent) == nm.bytes_delivered // scenario.packet_bytes + nm.packets_lost
        # The slots are sorted and end no earlier the later they start, so a
        # burst lies in some slot iff it lies in the last to start by its
        # start. A burst ends at its nominal end here, lost or not.
        slots = slots_ns(scenario, index)
        starts = [s for s, _ in slots]
        for start, end in sent:
            k = bisect_right(starts, start) - 1
            assert k >= 0 and end <= slots[k][1], (nm.name, start)
        everyone += sent
    everyone.sort()
    assert all(e1 <= s2 for (_, e1), (s2, _) in zip(everyone, everyone[1:]))
    return record


@pytest.mark.parametrize("name", [*EXAMPLES, *digest_runs.PRESETS])
def test_every_run_keeps_its_invariants(name, seen):
    """Each example above and each paper preset runs once through `_checked_run`."""
    record = _checked_run(
        EXAMPLES[name] if name in EXAMPLES else load_scenario(preset_path(name)), seen)
    if name == "clamps-every-tick":
        nm = record.node(1)
        assert list(nm.clamped_at) == list(range(1, len(nm.codes)))
    if name == "lost-mid-burst":
        assert seen["lost mid-burst"] >= 1, seen


@pytest.mark.parametrize("capacity_j, fraction", [(5.2, 0.013), (7.3, 0.041)])
def test_a_buffer_filled_one_ulp_past_capacity_ends_full(capacity_j, fraction, seen):
    """`before + added` in the harvest that fills the buffer rounds one ulp
    above capacity; the buffer clamps it, and the run ends full."""
    scenario = Scenario(duration_s=3.0, init_delay_s=0.0, node_count=1, optimizer="euno",
                        harvest_mw=5e4, battery_capacity_j=capacity_j, initial_fraction=fraction)
    assert _checked_run(scenario, seen).node(1).remaining_j == capacity_j


# The harness's scenarios by generator, each set from its own seeded stream:
# the pinned draws and the 300 after them, 150 tie-prone and 150 peripheral-prone.
DRAWN = {make.__name__: digest_runs.drawn(make, count) for make, count in (
    (digest_runs.draw, 400), (digest_runs.tie_prone, 150), (digest_runs.peripheral_prone, 150))}


def test_every_drawn_run_keeps_its_invariants(seen):
    """Each scenario of `DRAWN` runs once through `_checked_run`, and over
    the draws alone every check must run often enough."""
    for scenario in [scenario for drawn in DRAWN.values() for scenario in drawn]:
        _checked_run(scenario, seen)
    assert seen["eligible"] > 10_000, seen
    assert seen["live"] > 1_000 and seen["stale"] > 0, seen
    assert seen["steps"] > seen["chains"] > 0, seen
    assert all(seen[mode] for mode in Mode) and seen["rows"] > seen["kept"] > 0, seen
    assert min(seen[EventKind.SLEEP_SIGNAL], seen[EventKind.WAKE_SIGNAL]) > 100, seen
    assert seen["clamped"] > 1_000 and seen["dead link"] > 100, seen


def test_the_drawn_sets_are_pinned():
    """An edit that re-draws a set of `DRAWN` fails here, under its own name;
    digest_runs.txt pins the first `DRAWS` draws by name."""
    sets = {**DRAWN, "draw": DRAWN["draw"][digest_runs.DRAWS:]}
    assert {name: hashlib.sha256(repr(drawn).encode()).hexdigest()
            for name, drawn in sets.items()} == {
        "draw": "ce8781eb40b46f261f80c4416c041cae52bc9cbd0d4b2ff76680276c980e6db1",
        "tie_prone": "d6a628bf01366fcf8902156ac79b92f9c021759a0b4fa1a416e1bd0c7365b038",
        "peripheral_prone": "7e8f0badf46792b143b4dda4ad06a104e3c776101165c7b0a5785ef0ef47fe47"}
