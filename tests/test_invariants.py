"""Run invariants over random valid short scenarios.

Every run must finish without a ProtocolViolation, balance its energy ledger,
keep the buffer inside [0, capacity] on every trace row, achieve no more than
the target rate, count no more transmit-eligible time than the poll slots the
node owned, and keep both interfaces powered down while it sleeps; a second
spent asleep away from any tick draws exactly the sleep current. Its burst
log must account for every packet sent, place each burst inside one of the
node's own slots, and no two bursts of the run may overlap.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hybridsim import runner
from hybridsim.actions import Mode
from hybridsim.kernel import NS_PER_SEC, seconds
from hybridsim.node import SimNode
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import run
from hybridsim.scenario import Scenario, load_scenario, preset_path
from conftest import tx_bursts

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


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# ETNO resumes at once after a battery-low edge when f_c is above its sleep
# threshold; the optical interface must come back from OFF on the wake signal.
@example(Scenario(duration_s=60.0, optimizer="etno-owc", battery_capacity_j=0.5,
                  weights=UtilityWeights(f_c=0.35)))
# A poll slot that is not a whole number of nanoseconds: the last node's cut-off
# slot starts 2 ns early on the simulator's clock and so lasts 2 ns longer.
@example(Scenario(duration_s=32.0, node_count=5, poll_slot_s=7.969890099404346))
# A battery-charged edge while the node sleeps: it stays powered down until the
# policy wakes it.
@example(Scenario(duration_s=5.0, init_delay_s=0.0, node_count=1, poll_slot_s=1.0,
                  battery_capacity_j=0.1, initial_fraction=0.5, harvest_mw=25.0,
                  target_rate_kbps=36.0, conservation_rate_kbps=36.0))
# Nodes asleep at the first poll tick without inter-transmission sleep: they
# must keep drawing sleep current, not idle current, at OFF|OFF.
@example(Scenario(duration_s=30.0, node_count=3, initial_fraction=0.2, harvest_mw=1.0,
                  inter_transmission_sleep=False))
@given(scenarios())
def test_invariants_hold(scenario):
    record = run(scenario)
    capacity = scenario.battery_capacity_j
    sleep_j = scenario.sleep_current_ma * 1e-3 * scenario.supply_voltage  # per second
    ticked = ticked_seconds(scenario)
    everyone = []
    for index in range(scenario.node_count):
        nm = record.node(index + 1)
        ledger = nm.initial_j + nm.harvested_j - nm.consumed_j
        assert nm.remaining_j == pytest.approx(ledger, rel=TOL, abs=TOL * capacity)
        assert all(0.0 <= row.remaining_j <= capacity + 1e-12 for row in nm.rows)
        assert nm.achieved_rate_kbps <= scenario.target_rate_kbps * (1 + TOL)
        assert nm.eligible_s <= owned_slot_s(scenario, index) * (1 + TOL) + TOL
        # A burst caught in flight ends before its interface sleeps.
        assert all(row.fsm_state in ASLEEP for row in nm.rows
                   if row.mode == "sleep" and "TX" not in row.fsm_state), nm.name
        # A node asleep at two consecutive samples, with one second of sleep
        # draw stored and no optimizer or poll tick between them, drew exactly
        # sleep current for that second.
        for a, b in zip(nm.rows, nm.rows[1:]):
            if (a.mode == b.mode == "sleep" and a.fsm_state in ASLEEP
                    and b.fsm_state in ASLEEP and a.remaining_j >= sleep_j
                    and int(a.t_s) not in ticked):
                assert b.consumed_j - a.consumed_j == pytest.approx(sleep_j, rel=TOL), \
                    (nm.name, a.t_s)
        # Every burst sent is logged once: delivered, lost on the link, or
        # lost to a battery-low edge.
        bursts = tx_bursts(nm)
        assert len(bursts) == nm.bytes_delivered // scenario.packet_bytes + nm.packets_lost
        slots = slots_ns(scenario, index)
        assert all(any(s <= start <= end <= e for s, e in slots)
                   for start, end in bursts), nm.name
        everyone += bursts
    everyone.sort()
    assert all(e1 <= s2 for (_, e1), (s2, _) in zip(everyone, everyone[1:]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_sampled_interface_states_are_the_five_reachable(scenario):
    """Every sleep, wake and battery-low signal moves both interfaces, and at
    most one of them transmits: each sample's fsm_state is one of five."""
    for nm in run(scenario).nodes.values():
        assert {row.fsm_state for row in nm.rows} <= INTERFACE_LABELS, nm.name


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A run that ends between two whole seconds, with no initial delay.
@example(Scenario(duration_s=7.5, init_delay_s=0.0, node_count=2, poll_slot_s=2.0))
@given(scenarios())
def test_one_sample_per_whole_second(scenario):
    """The trace stores no time column: sample `i` is at `t_s = i`. So every
    node samples once at the start and once at each world tick, whether its
    stretch crossed the tick or the queue ran it."""
    record = run(scenario)
    samples = seconds(scenario.total_duration_s) // NS_PER_SEC + 1
    for nm in record.nodes.values():
        assert len(nm.tails) == samples and len(nm.values) == 3 * samples, nm.name
        assert [row.t_s for row in nm.rows] == list(range(samples))


def test_a_live_chain_step_sees_the_slot_and_mode_its_chain_started_in(monkeypatch):
    """A change of the mode or the slot bumps the epoch, which makes the
    chain's queued step stale, so a step that is still live never needs to
    check the mode again, and the chain's end streams iff the node holds the
    slot. No chain starts asleep."""
    started, calls = {}, {"chains": 0, "steps": 0}
    run_chain, advance = SimNode._run_chain, SimNode._advance_chain

    def spy_run_chain(node, now, chain):
        assert node.plan.mode is not Mode.SLEEP
        started[node] = (node.plan.mode, node.in_slot)
        calls["chains"] += 1
        run_chain(node, now, chain)

    def spy_advance(node, now):  # a chain's start, or the end of a live step
        assert (node.plan.mode, node.in_slot) == started[node], node.name
        calls["steps"] += 1
        advance(node, now)

    monkeypatch.setattr(SimNode, "_run_chain", spy_run_chain)
    monkeypatch.setattr(SimNode, "_advance_chain", spy_advance)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def check(scenario):
        run(scenario)

    check()
    assert calls["steps"] > calls["chains"] > 0, calls


def test_every_policy_choice_is_a_row_of_the_run_s_table(monkeypatch):
    """EUNO and ETNO choose a row of the run's one table, never a copy, and
    a node handed the row it holds changes nothing: no stale packet, no sleep
    entry, no modality switch."""
    tables, modes, calls = [], set(), {"rows": 0, "kept": 0}
    build, apply = runner.build_link_plans, SimNode.apply_action

    def spy_build(scenario):
        tables.append(build(scenario))
        return tables[-1]

    def spy_apply(node, plan, now):
        assert any(plan is row for row in tables[-1].values()), (node.name, plan)
        kept = plan is node.plan
        counts = (node._epoch, node.metrics.sleep_entries, node.metrics.modality_switches)
        apply(node, plan, now)
        modes.add(plan.mode)
        calls["rows"] += 1
        if kept:
            calls["kept"] += 1
            assert (node._epoch, node.metrics.sleep_entries,
                    node.metrics.modality_switches) == counts, node.name

    monkeypatch.setattr(runner, "build_link_plans", spy_build)
    monkeypatch.setattr(SimNode, "apply_action", spy_apply)
    for preset in ("paper_fig11", "paper_fig12"):  # ETNO, then EUNO
        run(load_scenario(preset_path(preset)))

    @settings(max_examples=50, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def check(scenario):
        run(scenario)

    check()
    assert modes == set(Mode) and calls["rows"] > calls["kept"] > 0, (modes, calls)
