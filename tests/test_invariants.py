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
burst log must account for every packet sent, place each burst inside one
of the node's own slots, and no two bursts of the run may overlap. A new run
invariant is one more check there.
"""

import json
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from hybridsim import node as node_module, runner
from hybridsim.actions import Mode
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, seconds
from hybridsim.metrics import MetricsRecord
from hybridsim.node import CHAIN_STEPS, SimNode
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import _Controller, build_link_plans
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import digest_runs, tx_bursts

TOL = 1e-9
ASLEEP = ("SLEEP|OFF", "OFF|OFF")
INTERFACE_LABELS = {*ASLEEP, "IDLE|IDLE", "TX|IDLE", "IDLE|TX_BUSY"}


@st.composite
def scenarios(draw) -> Scenario:
    """Short (<= 60 s), small (<= 5 nodes) scenarios over both policies, both
    sleep modes and small batteries, with f_c on either side of the ETNO
    thresholds, optional SNR jitter and harvest profiles, and lossless,
    lossy or (outside the field of view) dead optical links."""
    target = draw(st.floats(20.0, 400.0))
    sleep_threshold = draw(st.sampled_from([0.1, 0.2, 0.3]))
    profile = draw(st.one_of(
        st.just(()),
        st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4).map(
            lambda mws: tuple((10.0 * i, mw * 1e-3) for i, mw in enumerate(mws)))))
    return Scenario(
        duration_s=draw(st.floats(5.0, 60.0)),
        init_delay_s=draw(st.sampled_from([0.0, 1.0, 5.0])),
        node_count=draw(st.integers(1, 5)),
        distance_m=draw(st.sampled_from([1.0, 30.0])),
        # 75 deg is outside the default 60 deg field of view: no optical link.
        incidence_angle_deg=draw(st.sampled_from([0.0, 30.0, 75.0])),
        seed=draw(st.integers(1, 1000)),
        optimizer=draw(st.sampled_from(["euno", "etno", "etno-owc"])),
        inter_transmission_sleep=draw(st.booleans()),
        target_rate_kbps=target,
        conservation_rate_kbps=target * draw(st.floats(0.05, 1.0)),
        poll_slot_s=draw(st.floats(1.0, 25.0)),
        battery_capacity_j=draw(st.floats(0.05, 4.0)),
        initial_fraction=draw(st.floats(0.1, 1.0)),
        harvest_mw=draw(st.floats(0.0, 30.0)),
        harvest_profile=profile,
        snr_jitter_db=draw(st.sampled_from([0.0, 2.0])),
        etno_sleep_threshold=sleep_threshold,
        etno_conservation_threshold=sleep_threshold + 0.2,
        weights=UtilityWeights(f_c=draw(st.sampled_from([0.05, 0.2, 0.35, 0.6]))),
    )


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


@st.composite
def peripheral_prone(draw) -> Scenario:
    """Scenarios drawn like `scenarios()`; half of them idle between slots,
    with no inter-transmission sleep, under a peripheral period of 0.1 to
    2 s, often shorter than the 1.05 s peripheral chain it starts."""
    scenario = draw(scenarios())
    if draw(st.booleans()):
        scenario = scenario.replace(inter_transmission_sleep=False,
                                    peripheral_period_s=draw(st.floats(0.1, 2.0)))
    return scenario


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
}


@pytest.fixture
def seen(monkeypatch) -> Counter:
    """Counts of what the spies checked, with the spies on for the test.

    A live chain step sees the slot and the mode its chain started in, since
    a change of either bumps the epoch, and no chain starts asleep. EUNO and
    ETNO choose a row of the run's one table, never a copy, and a node handed
    the row it holds changes nothing: no stale packet, no sleep entry, no
    modality switch. EUNO takes no active row on a dead link (success
    probability 0) while another active row's link delivers. `park` signals
    only interfaces that the signal moves: a sleep signal only awake ones, a
    wake signal only asleep ones."""
    counts, tables, started = Counter(), [], {}
    build, apply, euno_select = (runner.build_link_plans, SimNode.apply_action,
                                 runner.euno_select)
    run_chain, advance, dispatch = (SimNode._run_chain, SimNode._advance_chain,
                                    node_module.fsm_dispatch)

    def spy_build(scenario):  # once per run, before any of its chains starts
        started.clear()
        tables[:] = [build(scenario)]
        return tables[0]

    def spy_apply(node, plan, now):
        assert any(plan is row for row in tables[0].values()), (node.name, plan)
        kept = plan is node.plan
        before = (node._epoch, node.metrics.sleep_entries, node.metrics.modality_switches)
        apply(node, plan, now)
        counts[plan.mode] += 1
        counts["rows"] += 1
        if kept:
            counts["kept"] += 1
            assert (node._epoch, node.metrics.sleep_entries,
                    node.metrics.modality_switches) == before, node.name

    def spy_euno(table, f_r, current, baseline_db, sample_db):
        row = euno_select(table, f_r, current, baseline_db, sample_db)
        live = {r.success_prob > 0.0 for r in tables[0].values()
                if r.mode is not Mode.SLEEP}
        if live == {True, False}:  # a dead link beside a live one
            assert row.mode is Mode.SLEEP or row.success_prob > 0.0, row
            counts["dead link"] += 1
        return row

    def spy_run_chain(node, now, chain):
        assert node.plan.mode is not Mode.SLEEP
        started[node] = (node.plan.mode, node.in_slot)
        counts["chains"] += 1
        run_chain(node, now, chain)

    def spy_advance(node, now):  # a chain's start, or the end of a live step
        assert (node.plan.mode, node.in_slot) == started[node], node.name
        counts["steps"] += 1
        advance(node, now)

    def spy_dispatch(current, kind, *modality):
        after = dispatch(current, kind, *modality)
        if kind in (EventKind.SLEEP_SIGNAL, EventKind.WAKE_SIGNAL):
            assert after is not current, (kind, current)
            counts[kind] += 1
        return after

    monkeypatch.setattr(runner, "build_link_plans", spy_build)
    monkeypatch.setattr(SimNode, "apply_action", spy_apply)
    monkeypatch.setattr(runner, "euno_select", spy_euno)
    monkeypatch.setattr(SimNode, "_run_chain", spy_run_chain)
    monkeypatch.setattr(SimNode, "_advance_chain", spy_advance)
    monkeypatch.setattr(node_module, "fsm_dispatch", spy_dispatch)
    return counts


def _checked_run(scenario: Scenario, seen: Counter) -> MetricsRecord:
    """Run `scenario` once under the spies of `seen` and check every run
    invariant: two after each dispatched event, then each per-run and
    per-sample one on the run's record, which it returns.

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
    controller.start()
    engine.run_until(controller.total_ns)
    record = controller.finalize()

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
        # Every burst sent is logged once: delivered, lost on the link, or
        # lost to a battery-low edge.
        bursts = tx_bursts(nm)
        assert len(bursts) == nm.bytes_delivered // scenario.packet_bytes + nm.packets_lost
        # The slots are sorted and end no earlier the later they start, so a
        # burst lies in some slot iff it lies in the last to start by its start.
        slots = slots_ns(scenario, index)
        starts = [s for s, _ in slots]
        for start, end in bursts:
            k = bisect_right(starts, start) - 1
            assert k >= 0 and end <= slots[k][1], (nm.name, start)
        everyone += bursts
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


@pytest.mark.parametrize("capacity_j, fraction", [(5.2, 0.013), (7.3, 0.041)])
def test_a_buffer_filled_one_ulp_past_capacity_ends_full(capacity_j, fraction, seen):
    """`before + added` in the harvest that fills the buffer rounds one ulp
    above capacity; the buffer clamps it, and the run ends full."""
    scenario = Scenario(duration_s=3.0, init_delay_s=0.0, node_count=1, optimizer="euno",
                        harvest_mw=5e4, battery_capacity_j=capacity_j, initial_fraction=fraction)
    assert _checked_run(scenario, seen).node(1).remaining_j == capacity_j


def test_every_drawn_run_keeps_its_invariants(seen):
    """Each seeded draw of `digest_runs.py` and each draw of the three
    strategies runs once through `_checked_run`, and over the draws alone
    every check must run often enough. The strategies draw from a fixed
    seed, so an edit to this text draws the same examples."""
    for _, scenario in digest_runs.draws(digest_runs.DRAWS):
        _checked_run(scenario, seen)
    for strategy, examples in ((scenarios(), 300), (tie_prone(), 150), (peripheral_prone(), 150)):
        @settings(max_examples=examples, suppress_health_check=[HealthCheck.too_slow])
        @seed(2026)
        @given(strategy)
        def check(scenario):
            _checked_run(scenario, seen)

        check()
    assert seen["eligible"] > 10_000, seen
    assert seen["live"] > 1_000 and seen["stale"] > 0, seen
    assert seen["steps"] > seen["chains"] > 0, seen
    assert all(seen[mode] for mode in Mode) and seen["rows"] > seen["kept"] > 0, seen
    assert min(seen[EventKind.SLEEP_SIGNAL], seen[EventKind.WAKE_SIGNAL]) > 100, seen
    assert seen["clamped"] > 1_000 and seen["dead link"] > 100, seen


def _seedless(run: dict) -> dict:
    """`digest_runs.outputs(...)` less what a seed may move: the random
    streams' state, and the two seed fields of `summary.json`."""
    summary = json.loads(run["files"]["summary.json"])
    del summary["seed"], summary["config"]["seed"]
    files = {**run["files"], "summary.json": json.dumps(summary, sort_keys=True, indent=2)}
    return {**run, "files": files, "rng": None}


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
# Without SNR jitter, and at 1 m unless the optical link is dead (75 deg lies
# outside the field of view, and the radio delivers at 30 m too).
@given(scenarios().map(lambda s: s.replace(
    snr_jitter_db=0.0, distance_m=s.distance_m if s.incidence_angle_deg == 75.0 else 1.0)))
def test_a_lossless_jitter_free_run_does_not_depend_on_its_seed(scenario):
    """With every packet outcome certain and no SNR jitter, no random draw can
    move an output: a second seed writes the same trace bytes, the same
    summary bar its seed fields, and the same burst log, time and events."""
    assert {row.success_prob for row in build_link_plans(scenario).values()} <= {0.0, 1.0}
    other = scenario.replace(seed=scenario.seed + 1)
    assert _seedless(digest_runs.outputs(other)) == _seedless(digest_runs.outputs(scenario))
