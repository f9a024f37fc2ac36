"""Unit tests of the runner, node and trace writer on a shortened scenario:
trace integrity and deterministic trace files. Run invariants are checked in
test_invariants.py, the shortcuts against the queue in test_shortcuts.py."""

import gc
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import hybridsim
from hybridsim.actions import Mode, Modality
from hybridsim.energy import EnergyBuffer
from hybridsim.kernel import NS_PER_SEC, Engine, EventKind, seconds
from hybridsim.linklayer import InterfaceState
from hybridsim import node as node_module
from hybridsim.metrics import (TRACE_CODES, TRACE_HEADER, TRACE_TAILS, MetricsRecord,
                               NodeMetrics, TraceRow, write_traces)
from hybridsim.node import CHAIN_STEPS, ProtocolViolation, SimNode, fitting_bursts, tick_nodes
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import _Controller, build_link_plans, run, sweep
from hybridsim.scenario import MAX_NODE_SECONDS, Scenario, load_scenario
from conftest import metrics_fields, perfbench_run, tick_each_node, tx_bursts
from test_invariants import EXAMPLES, INTERFACE_LABELS, SHORT

DATA = Path(__file__).parent / "data"
# 3 ETNO nodes on an optical link that loses about a third of its packets
# and a radio link that loses every one.
LOSSY = DATA / "etno3_lossy.cfg"
# The label code of a sleeping radio node's powered-off interfaces.
ASLEEP_BLE = TRACE_CODES[Mode.SLEEP, Modality.BLE][InterfaceState.OFF]


@pytest.fixture(scope="module")
def metrics():
    return run(SHORT)


class TestTraces:
    def test_trace_files_and_summary(self, metrics, tmp_path):
        paths = write_traces(metrics, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["summary.json", "trace_node1.csv", "trace_node2.csv",
                         "trace_node3.csv"]
        csv_lines = (tmp_path / "trace_node1.csv").read_text().splitlines()
        assert csv_lines[0] == TRACE_HEADER
        assert len(csv_lines) == len(metrics.node(1).rows) + 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == SHORT.seed
        assert summary["config"]["battery_capacity_j"] == 2.0
        assert "modality_switch_count" in summary["nodes"]["node1"]

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 1e-12, 123456789.5, 1e20,
                                       7, 10**12 + 1])
    def test_row_format_matches_per_field_format(self, value, tmp_path):
        # The energy columns print as `.9g`. The second sample is at 1 s,
        # where harvested_J is 0.0 J plus the tick's lump.
        nm = NodeMetrics("node1", array("d", [value]))
        nm.values.extend((value,) * 4)
        nm.codes.extend((ASLEEP_BLE,) * 2)
        write_traces(MetricsRecord(config={}, seed=1, nodes={"node1": nm}), tmp_path)
        expected = ",".join(["1", *[format(value, ".9g")] * 2, format(0.0 + value, ".9g"),
                             "sleep", "ble", "OFF|OFF"])
        assert (tmp_path / "trace_node1.csv").read_text().splitlines()[2] == expected

    def test_clock_text_is_the_float_text_of_every_sample_index(self):
        # `write_traces` prints sample `i`'s t_s with `%d`, which equals the
        # `%.9g` text of `float(i)` only below 10**9; past it `%.9g` turns to
        # an exponent. The load rule bounds the index by MAX_NODE_SECONDS.
        indices = [0, *(10**k for k in range(len(str(MAX_NODE_SECONDS)))),
                   *range(7, MAX_NODE_SECONDS, 9973), MAX_NODE_SECONDS]
        assert [i for i in indices if b"%d" % i != b"%.9g" % float(i)] == []

    def test_a_node_that_clamped_writes_its_own_harvest_column(self, tmp_path):
        # Nodes share the run's harvested_J column, formatted once, but one
        # whose buffer clamped a tick's lump sums its own; the node after it
        # shares the run's column again.
        lumps, nodes = array("d", [0.5, 0.5]), {}
        for name, clamps in (("node1", ()), ("node2", ((1, 0.25),)), ("node3", ())):
            nm = nodes[name] = NodeMetrics(name, lumps)
            nm.values.extend((1.0, 2.0) * 3)
            nm.codes.extend((ASLEEP_BLE,) * 3)
            for tick, joules in clamps:
                nm.clamped_at.append(tick)
                nm.clamped_j.append(joules)
        write_traces(MetricsRecord(config={}, seed=1, nodes=nodes), tmp_path)
        for name, column in (("node1", "0 0.5 1"), ("node2", "0 0.25 0.75"),
                             ("node3", "0 0.5 1")):
            rows = (tmp_path / f"trace_{name}.csv").read_text().splitlines()[1:]
            assert [row.split(",")[3] for row in rows] == column.split(), name

    def test_node_without_samples_writes_the_header_only(self, tmp_path):
        nodes = {"node1": NodeMetrics("node1", array("d"))}
        write_traces(MetricsRecord(config={}, seed=1, nodes=nodes), tmp_path)
        assert (tmp_path / "trace_node1.csv").read_text() == TRACE_HEADER + "\n"

    def test_samples_are_stored_column_wise_and_read_as_rows(self, monkeypatch):
        # Beside each sample (the start's and each world tick's), record the
        # TraceRow a tuple-per-sample store built from the node's state, and
        # the state's label key. Each node's sample is the last thing its
        # part of the start or of the tick does.
        expected, keys = {}, {}

        def record_samples(nodes, t_s):
            for node in nodes:
                b = node.buffer
                expected.setdefault(node.name, []).append(TraceRow(
                    t_s, b.remaining_j, b.consumed_j, b.harvested_j, node.plan.mode.value,
                    node.plan.modality.value, node.interfaces.value))
                keys.setdefault(node.name, []).append(
                    (node.plan.mode, node.plan.modality, node.interfaces))

        start = _Controller.start

        def recording_start(controller):
            start(controller)
            record_samples(controller.nodes, 0.0)

        def recording_tick(nodes, now, harvest_j):
            tick_nodes(nodes, now, harvest_j)
            record_samples(nodes, now / NS_PER_SEC)

        monkeypatch.setattr(_Controller, "start", recording_start)
        monkeypatch.setattr("hybridsim.runner.tick_nodes", recording_tick)
        record = run(SHORT)
        for name, nm in record.nodes.items():
            assert type(nm.values) is array and nm.values.typecode == "d"
            assert type(nm.codes) is array and nm.codes.typecode == "B"
            assert len(nm.values) == 2 * len(nm.codes) > 0
            assert [TRACE_TAILS[code] for code in nm.codes] == [
                f",{mode.value},{modality.value},{state.value}"
                for mode, modality, state in keys[name]]
            assert nm.lumps is record.node(1).lumps  # one harvest column per run
            rows = nm.rows
            assert rows == expected[name]
            assert all(type(row) is TraceRow for row in rows)

    def test_sampling_allocates_little_per_sample(self):
        # At most 20 B of live allocations per sample at `SimNode.sample`
        # and at the world tick's inline sample in `tick_nodes`: two doubles
        # in one array and a one-byte label code in another, 18.4 B with the
        # arrays' spare room. Three doubles and a pointer to a shared label
        # held 34 B; a tuple, a label string and boxed floats ~160 B.
        where = []
        for appender in (SimNode.sample, tick_nodes):
            lines, first = inspect.getsourcelines(appender)
            where += [tracemalloc.Filter(True, node_module.__file__, lineno=n)
                      for n in range(first, first + len(lines))]
        tracemalloc.start()
        try:
            record = run(SHORT.replace(node_count=8))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.filter_traces(where).statistics("filename"))
        samples = sum(len(nm.codes) for nm in record.nodes.values())
        assert samples > 1000
        assert held <= 20 * samples

    def test_a_run_holds_its_records_in_typed_arrays(self):
        # A node stores two doubles and one label code per sample, 12 B per
        # tick whose lump its buffer clamped, and 32 B per burst record; every
        # node of the 64-node fleet refers to the run's one array of lumps. The record, after the run, held 1,288,000 B on Python
        # 3.11.7, 19.5 B per node-second; with three doubles and a label
        # pointer per sample, a harvested_J column per node and tuple burst
        # records it held 2,451,000 B.
        fleet64 = load_scenario(DATA / "fleet64.cfg")
        gc.collect()
        tracemalloc.start()
        try:
            record = run(fleet64)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1_500_000
        lumps = record.node(1).lumps
        assert all(nm.lumps is lumps for nm in record.nodes.values())
        # The fleet clamps no tick, and the lone 10 ms streamer every one.
        streamer = EXAMPLES["clamps-every-tick"]
        for scenario, nodes in ((fleet64, record.nodes.values()),
                                (streamer, [run(streamer).node(1)])):
            samples = int(scenario.total_duration_s) + 1
            for nm in nodes:
                stored = sum(len(column) * column.itemsize
                             for column in (nm.values, nm.codes, nm.clamped_at, nm.clamped_j))
                assert stored == 17 * samples + 12 * len(nm.clamped_at), nm.name
                assert len(nm.bursts) * nm.bursts.itemsize == 32 * len(nm.tx_intervals), nm.name
        assert len(nm.clamped_at) == samples - 1

    def test_lossy_links_lose_some_optical_and_every_radio_packet(self):
        # Every packet outcome depends on its draw, so the bytes that
        # tests/data pins for this scenario pin where each node's stream
        # stands at every burst.
        plans = build_link_plans(load_scenario(LOSSY))
        for mode in Mode:
            assert 0.0 < plans[mode, Modality.OWC].success_prob < 1.0
            assert plans[mode, Modality.BLE].success_prob == 0.0

    def test_pinned_fleet_is_the_benchmarks(self):
        # tests/data/fleet64.cfg is the `fleet` scenario perfbench/run.py
        # generates at seed 1, so its pin holds the benchmark's outputs.
        fleet64 = DATA / "fleet64.cfg"
        assert fleet64.read_bytes() == perfbench_run.fleet_config(1).encode()

    @pytest.mark.parametrize("state", list(InterfaceState))
    def test_sampled_fsm_label(self, state):
        # Each interface state samples as one of the five reachable labels.
        row = _sampled_row(interfaces=state)
        assert row.fsm_state == state.value
        assert row.fsm_state in INTERFACE_LABELS

    @pytest.mark.parametrize("mode,modality", itertools.product(Mode, Modality))
    def test_sampled_mode_and_modality_labels(self, mode, modality):
        row = _sampled_row(mode=mode, modality=modality)
        assert (row.mode, row.modality) == (mode.value, modality.value)


def _sampled_row(mode=Mode.PERFORMANCE, modality=Modality.OWC,
                 interfaces=InterfaceState.IDLE):
    """The trace row `SimNode.sample` writes for a lone node in that state."""
    controller = _Controller(SHORT.replace(node_count=1), Engine())
    node = controller.nodes[0]
    node.plan, node.interfaces = node.plans[mode, modality], interfaces
    node.sample()
    return node.metrics.rows[-1]


class TestBehaviour:
    def test_node_starts_on_best_snr_modality(self, metrics):
        plans = build_link_plans(SHORT)
        best = max(Modality, key=lambda m: plans[Mode.PERFORMANCE, m].snr_db)
        assert best is Modality.OWC
        assert metrics.node(1).rows[0].modality == "owc"

    def test_inter_transmission_sleep_saves_energy(self):
        awake = run(SHORT.replace(optimizer="etno"))
        asleep = run(SHORT.replace(optimizer="etno",
                                   inter_transmission_sleep=True))
        assert (asleep.node(1).consumed_j < awake.node(1).consumed_j)

    def test_lone_node_with_sleep_stays_up_between_its_slots(self):
        # A lone node's next slot starts as its slot ends, so it keeps its
        # interfaces up across the boundary, rather than sleeping and waking
        # through the duty cycle, and delivers what its run without
        # inter-transmission sleep delivers.
        lone = SHORT.replace(node_count=1, poll_slot_s=10.0)
        node = _lone_node(lone, inter_transmission_sleep=True)
        node.enter_slot(0, seconds(10))
        node.exit_slot(seconds(10))
        assert node.interfaces is InterfaceState.IDLE
        node.enter_slot(seconds(10), seconds(20))
        assert node._phase_ma == lone.idle_current_ma  # streams, with no wake-up chain
        asleep = run(lone.replace(inter_transmission_sleep=True)).node(1)
        awake = run(lone).node(1)
        assert asleep.bytes_delivered == awake.bytes_delivered > 0
        assert asleep.sleep_entries == awake.sleep_entries

    def test_sleeping_node_shows_sleep_states_in_trace(self):
        m = run(SHORT.replace(inter_transmission_sleep=True))
        labels = {row.fsm_state for row in m.node(1).rows}
        assert "SLEEP|OFF" in labels  # parked between slots

    def test_depleted_node_goes_dark_and_recovers(self):
        # tiny battery with no harvest: node must hit the guard and stay off
        m = run(SHORT.replace(battery_capacity_j=0.2, harvest_mw=0.0))
        n1 = m.node(1)
        assert n1.rows[-1].remaining_j == pytest.approx(0.0, abs=1e-12)
        assert n1.sleep_entries >= 1
        assert any(row.mode == "sleep" for row in n1.rows)

    def test_node_asleep_at_the_first_poll_tick_keeps_sleeping(self):
        # The battery-low edge puts every node to sleep during the init
        # delay. Without inter-transmission sleep the first poll tick parks
        # a sleeping node in sleep too: it must not draw idle current until
        # its first slot ends (node 3's would end at 80 s).
        scenario = SHORT.replace(optimizer="euno", battery_capacity_j=8.0,
                                 initial_fraction=0.2, harvest_mw=1.0)
        sleep_j = scenario.sleep_current_ma * 1e-3 * scenario.supply_voltage
        for nm in run(scenario).nodes.values():
            assert nm.sleep_entries == 1 and nm.bytes_delivered == 0
            rows = nm.rows[int(scenario.init_delay_s) + 1:]
            for before, after in zip(rows, rows[1:]):
                assert after.consumed_j - before.consumed_j == pytest.approx(sleep_j)

    @pytest.mark.parametrize("policy", [
        dict(optimizer="euno", weights=UtilityWeights(f_c=0.0)),
        dict(optimizer="etno", etno_sleep_threshold=0.0),
    ], ids=["euno-f_c-0", "etno-sleep-threshold-0"])
    def test_empty_buffer_never_streams(self, policy):
        # With no critical level the sleep rule must still fire at 0 J.
        m = run(Scenario(duration_s=120, node_count=1, inter_transmission_sleep=False,
                         battery_capacity_j=0.5, harvest_mw=0, **policy))
        n1 = m.node(1)
        empty_s = [row.t_s for row in n1.rows if row.remaining_j == 0.0]
        assert empty_s and empty_s[0] < 60
        assert n1.tx_intervals
        assert [t for t, _ in tx_bursts(n1) if t >= seconds(empty_s[0])] == []
        assert n1.rows[-1].mode == "sleep"

    def test_gateway_power_reported(self, metrics):
        assert metrics.gateway_consumed_j == pytest.approx(
            1.28 * SHORT.total_duration_s)

    def test_sweep_single_point(self):
        result = sweep(SHORT.replace(duration_s=100.0), [100.0],
                       optimizers=("etno",))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.optimizer == "etno"
        assert 0 < row.achieved_rate_kbps <= 100.0
        assert result.achieved(100.0, "etno") == row.achieved_rate_kbps
        with pytest.raises(KeyError):
            result.achieved(100.0, "euno")  # not swept

    def test_sweep_requires_rates(self):
        with pytest.raises(ValueError):
            sweep(SHORT, [])

    def test_transmit_from_sleeping_interface_is_a_violation(self):
        engine = Engine()
        controller = _Controller(SHORT.replace(inter_transmission_sleep=True), engine)
        node = controller.nodes[0]
        node.park()
        with pytest.raises(ProtocolViolation):
            node.transmit_packet(0)


def _lone_node(base: Scenario = SHORT, **overrides):
    """The one node of a fresh single-node run of `base`, before its first event."""
    scenario = base.replace(node_count=1, init_delay_s=0.0, **overrides)
    node = _Controller(scenario, Engine()).nodes[0]
    node.evaluate_cb = lambda nodes, now: None  # drive the node by hand, without the policy
    return node


class TestNodeLifecycle:
    def test_tx_in_flight_reads_the_interface_fsms(self):
        node = _lone_node()
        assert not node.tx_in_flight
        node.enter_slot(0, seconds(10))
        node.transmit_packet(0)
        assert node.tx_in_flight and node.interfaces is InterfaceState.OWC_TX
        node.on_transmit_end(node.plans[Mode.PERFORMANCE, Modality.OWC].airtime_ns)
        assert not node.tx_in_flight and node.interfaces is InterfaceState.IDLE

    @pytest.mark.parametrize("first", list(Modality))
    def test_transmit_start_mid_burst_is_a_violation(self, first):
        # A burst on either interface blocks a start on both.
        node = _lone_node()
        node.enter_slot(0, seconds(10))
        node.plan = node.plans[Mode.PERFORMANCE, first]
        node.transmit_packet(0)
        for modality in Modality:
            node.plan = node.plans[Mode.PERFORMANCE, modality]
            with pytest.raises(ProtocolViolation, match="TX from"):
                node.transmit_packet(0)

    @pytest.mark.parametrize("state", [s for s in InterfaceState if s is not InterfaceState.IDLE])
    def test_live_packet_ready_off_idle_is_a_violation(self, state):
        # A stretch runs only from IDLE, so from any other state a live
        # packet-ready sends its burst through `transmit_packet`, which
        # refuses it. Nothing else is queued and the slot ends before the
        # horizon: a stretch run from there would end at the slot's end and
        # send nothing.
        node = _lone_node()
        node.enter_slot(0, seconds(1))
        node.interfaces = state
        with pytest.raises(ProtocolViolation, match="TX from"):
            node.engine.run_until(seconds(2))

    @pytest.mark.parametrize("sent, switched", [(Modality.OWC, Modality.BLE),
                                                (Modality.BLE, Modality.OWC)])
    def test_burst_outcome_draws_at_the_modality_it_was_sent_on(self, sent, switched):
        # On the lossy links the optical one delivers about 64 % of packets and
        # the radio none, so the outcomes tell the two links apart. Each burst
        # goes out on `sent`, and the node switches to `switched` mid-burst.
        node = _lone_node(load_scenario(LOSSY))
        owc, ble = (node.plans[Mode.PERFORMANCE, m].success_prob for m in Modality)
        assert 0.0 < owc < 1.0 and ble == 0.0
        sent_on = node.plans[Mode.PERFORMANCE, sent]
        draws = random.Random()
        draws.setstate(node.rng.getstate())
        node.enter_slot(0, seconds(10))
        now, bursts = 0, 32
        for _ in range(bursts):
            node.apply_action(sent_on, now)
            node.transmit_packet(now)
            node.apply_action(node.plans[Mode.PERFORMANCE, switched], now)
            assert node.plan.modality is switched and node.tx_in_flight
            now += sent_on.airtime_ns
            node.on_transmit_end(now)
        delivered = sum(draws.random() < sent_on.success_prob for _ in range(bursts))
        assert (node.metrics.bytes_delivered, node.metrics.packets_lost) == (
            delivered * node.scenario.packet_bytes, bursts - delivered)
        assert 0 < delivered if sent is Modality.OWC else delivered == 0

    def test_reconfiguration_makes_a_scheduled_packet_stale(self):
        node = _lone_node()
        node.enter_slot(0, seconds(10))
        stale = node._pending_packet
        node.apply_action(node.plans[Mode.PERFORMANCE, Modality.BLE], 0)
        node.on_packet_ready(stale.fire_at, stale.payload)
        assert not node.tx_in_flight

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_applying_the_node_s_own_row_changes_nothing(self, mode):
        node = _lone_node()
        node.enter_slot(0, seconds(10))
        node.apply_action(node.plans[mode, Modality.BLE], 0)
        before = (node.plan, node._epoch, node.metrics.sleep_entries,
                  node.metrics.modality_switches, node._pending_packet)
        node.apply_action(node.plan, seconds(1))
        assert (node.plan, node._epoch, node.metrics.sleep_entries,
                node.metrics.modality_switches, node._pending_packet) == before

    def test_battery_low_mid_burst_loses_the_packet(self):
        node = _lone_node()
        node.enter_slot(0, seconds(10))
        node.transmit_packet(0)
        buffer = node.buffer
        buffer.remaining_j = buffer.threshold_j
        airtime = node.plans[Mode.PERFORMANCE, Modality.OWC].airtime_ns
        node.sync(airtime // 2)
        assert node.interfaces is InterfaceState.OFF
        assert node.plan is node.plans[Mode.SLEEP, Modality.OWC]
        node.on_transmit_end(airtime)  # the burst already ended
        assert node.metrics.packets_lost == 1 and node.metrics.bytes_delivered == 0

    def test_battery_low_mid_burst_in_sleep_mode_powers_off_at_once(self):
        # Sleep mode taken mid-burst leaves the burst in flight; the edge
        # loses it, powers both interfaces off and draws the sleep current
        # from then on, and the burst's end finds nothing left to do.
        node = _lone_node()
        node.enter_slot(0, seconds(10))
        node.transmit_packet(0)
        node.apply_action(node.plans[Mode.SLEEP, Modality.OWC], 0)
        assert node.tx_in_flight
        buffer = node.buffer
        buffer.remaining_j = buffer.threshold_j
        airtime = node.plans[Mode.PERFORMANCE, Modality.OWC].airtime_ns
        node.sync(airtime // 2)
        assert node.interfaces is InterfaceState.OFF
        assert (node.metrics.packets_lost, node.metrics.sleep_entries) == (1, 1)
        at_edge = buffer.remaining_j
        before = (node.interfaces, node.plan, node._epoch, metrics_fields(node.metrics))
        node.on_transmit_end(airtime)
        assert (node.interfaces, node.plan, node._epoch, metrics_fields(node.metrics)) == before
        node.sync(airtime // 2 + NS_PER_SEC)
        sleep_j = node.scenario.sleep_current_ma * 1e-3 * node.scenario.supply_voltage
        assert at_edge - buffer.remaining_j == pytest.approx(sleep_j, rel=1e-9)

    def test_burst_ending_at_slot_end_parks_after_it_ends(self):
        # Two nodes: a lone node's next slot follows at once, so it never
        # sleeps between slots.
        scenario = SHORT.replace(node_count=2, init_delay_s=0.0, inter_transmission_sleep=True)
        node = _Controller(scenario, Engine()).nodes[0]
        node.evaluate_cb = lambda nodes, now: None
        airtime = node.plans[Mode.PERFORMANCE, Modality.OWC].airtime_ns
        node.enter_slot(0, airtime)
        node.transmit_packet(0)
        node.exit_slot(airtime)
        node.apply_action(node.plans[Mode.CONSERVATION, Modality.OWC], airtime)
        # no interface sleeps mid-burst
        assert node.interfaces is InterfaceState.OWC_TX
        node.on_transmit_end(airtime)
        assert node.interfaces is InterfaceState.SLEEP
        assert not node.awake

    def test_slot_ending_inside_a_queued_burst_restreams_at_its_end(self):
        # 10 ms bursts every 10 ms: the last burst of each 1 s slot is queued
        # and ends at the slot's end, where the gateway's tick fires first.
        # The lone node re-enters its own slot mid-burst, which makes the
        # burst's packet-ready stale, so the burst's end restreams.
        scenario = Scenario(duration_s=3.0, init_delay_s=0.0, node_count=1,
                            optimizer="etno", inter_transmission_sleep=False,
                            target_rate_kbps=409.6, owc_phy_rate_kbps=409.6,
                            poll_slot_s=1.0)
        bursts = tx_bursts(run(scenario).node(1))
        spacing = seconds(0.01)
        for slot_end in (seconds(1), seconds(2)):
            assert (slot_end - spacing, slot_end) in bursts
            assert min(start for start, _ in bursts if start >= slot_end) == slot_end + spacing


def _ticking_nodes(f_c: float, levels_j: list[float]) -> list[SimNode]:
    """The nodes of a fresh EUNO run with SNR jitter, one per level, each
    2 J buffer set to its level: an evaluation draws from the node's stream."""
    scenario = SHORT.replace(node_count=len(levels_j), init_delay_s=0.0, optimizer="euno",
                             snr_jitter_db=2.0, weights=UtilityWeights(f_c=f_c))
    nodes = _Controller(scenario, Engine()).nodes
    for node, level_j in zip(nodes, levels_j):
        node.buffer.remaining_j = level_j
    return nodes


def _tick_equals_the_steps(monkeypatch, f_c: float, levels_j: list[float], harvest_j: float,
                           now: int) -> tuple[list[SimNode], list[str]]:
    """Tick fresh nodes at `levels_j` in one `tick_nodes` pass, take a
    second set through the separate steps, and check that each pair ends
    alike. Return the ticked nodes, and the names of those that took
    `EnergyBuffer.harvest` (an edge or a clamp)."""
    ticked, stepped = _ticking_nodes(f_c, levels_j), _ticking_nodes(f_c, levels_j)
    settled = []
    harvest = EnergyBuffer.harvest
    monkeypatch.setattr(EnergyBuffer, "harvest",
                        lambda buffer, joules: settled.append(buffer)
                        or harvest(buffer, joules))
    tick_nodes(ticked, now, harvest_j)
    slow = [node.name for node in ticked if node.buffer in settled]
    tick_each_node(stepped, now, harvest_j)
    for a, b in zip(ticked, stepped):
        assert vars(a.buffer) == vars(b.buffer)
        assert metrics_fields(a.metrics) == metrics_fields(b.metrics)  # samples, sleep entries, ...
        assert a.rng.getstate() == b.rng.getstate()
        assert ((a.plan, a._phase_ma, a._phase_since)
                == (b.plan, b._phase_ma, b._phase_since))
    return ticked, slow


class TestHarvestTick:
    """`tick_nodes` must leave each node exactly as the separate steps do:
    settle, harvest, evaluate on a battery-charged edge, sample. Idling at
    3.3 mA from 3.3 V draws 0.01089 J a second; f_c = 0.2 puts the threshold
    at 0.4 J."""

    @pytest.mark.parametrize("f_c, level_j, harvest_j, now, slow", [
        pytest.param(0.2, 1.0, 0.005, seconds(1), False, id="above"),
        pytest.param(0.2, 0.411, 0.0, seconds(1), False, id="just-above-stays"),
        pytest.param(0.2, 0.405, 0.001, seconds(1), True, id="low-edge"),
        pytest.param(0.2, 0.405, 0.02, seconds(1), True, id="low-and-charged-edges"),
        pytest.param(0.2, 0.39, 0.005, seconds(1), False, id="just-below-stays"),
        pytest.param(0.2, 0.399, 0.02, seconds(1), True, id="charged-edge"),
        pytest.param(0.2, 2.0, 0.02, seconds(1), True, id="capacity-clamps"),
        pytest.param(0.2, 2.0, 0.0, seconds(1), False, id="capacity"),
        pytest.param(0.2, 0.005, 0.0, seconds(1), True, id="runs-dry"),
        pytest.param(0.2, 0.0, 0.0, seconds(1), True, id="empty"),
        pytest.param(0.2, 0.0, 0.005, seconds(1), True, id="empty-harvest"),
        pytest.param(0.2, 1.0, 0.005, 0, False, id="no-time-elapsed"),
        pytest.param(0.0, 1.0, 0.005, seconds(1), False, id="f_c-0"),
        pytest.param(0.0, 0.005, 0.001, seconds(1), True, id="f_c-0-runs-dry"),
        pytest.param(0.0, 0.0, 0.005, seconds(1), True, id="f_c-0-empty-harvest"),
    ])
    def test_tick_equals_the_separate_steps(self, monkeypatch, f_c, level_j,
                                            harvest_j, now, slow):
        _, settled = _tick_equals_the_steps(monkeypatch, f_c, [level_j], harvest_j, now)
        assert len(settled) == slow

    def test_one_pass_mixes_the_inline_and_the_settled_path(self, monkeypatch):
        # Above the threshold, across it (a charged edge: the policy
        # evaluates and draws its SNR jitter), and below it.
        levels_j = [1.0, 0.399, 0.39]
        ticked, settled = _tick_equals_the_steps(monkeypatch, 0.2, levels_j, 0.02,
                                                 seconds(1))
        assert settled == ["node2"]
        drew = [a.rng.getstate() != b.rng.getstate()
                for a, b in zip(ticked, _ticking_nodes(0.2, levels_j))]
        assert drew == [False, True, False]

    @settings(max_examples=100)
    @seed(2026)
    @given(current_ma=st.floats(0.1, 50.0), voltage=st.floats(1.0, 5.0),
           elapsed=st.integers(1, 2 * NS_PER_SEC))
    def test_inline_tick_draws_in_the_float_order_of_sync(self, current_ma, voltage, elapsed):
        # A full 100 J buffer keeps the draw inline; `sync` draws through
        # `_joules`, whose product, taken in another order, rounds
        # differently for about a third of these inputs.
        ticked, stepped = (_lone_node(supply_voltage=voltage, battery_capacity_j=100.0)
                           for _ in range(2))
        for node in (ticked, stepped):
            node._phase_ma = current_ma
        tick_nodes([ticked], elapsed, 0.0)
        stepped.sync(elapsed)
        stepped.buffer.harvest(0.0)
        stepped.sample()
        assert vars(ticked.buffer) == vars(stepped.buffer)
        assert metrics_fields(ticked.metrics) == metrics_fields(stepped.metrics)

    def test_harvest_that_fills_the_buffer_stops_at_capacity(self):
        # With nothing drawn, adding `capacity - level` back to this level
        # rounds one ulp above the 5.2 J capacity, so the tick settles it
        # through `EnergyBuffer.harvest`, which clamps it.
        node = _lone_node(battery_capacity_j=5.2)
        node._phase_ma = 0.0
        level = node.buffer.remaining_j = 1.1606180572826879
        tick_nodes([node], seconds(1), 5.2 - level)
        assert node.buffer.remaining_j == node.metrics.rows[-1].remaining_j == 5.2

    def test_node_without_policy_ticks_across_a_charged_edge(self):
        node = _lone_node()
        node.buffer.remaining_j = node.buffer.threshold_j - 0.001
        tick_nodes([node], seconds(1), 0.02)
        assert node.buffer.remaining_j > node.buffer.threshold_j
        assert node.metrics.rows[-1].remaining_j == node.buffer.remaining_j


# Joules at the ends of a double's range, or anywhere in it.
JOULES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.7e308]),
                   st.floats(0.0, 1.7e308))


class TestInlinePackets:
    """A node runs the bursts that raise no battery edge inline, up to the
    next queued event, as one stretch. These are its unit tests;
    test_shortcuts.py checks whole runs with it against runs without it."""

    @settings(max_examples=300)
    @seed(2026)
    @given(levels=st.lists(JOULES, min_size=2, max_size=2).map(sorted), burst_j=JOULES,
           gap_j=JOULES, n=st.one_of(st.integers(0, 100), st.integers(0, 10**9)))
    # A step of half an ulp of the level: one burst rounds back to the level.
    @example(levels=[2.0**53 + 4] * 2, burst_j=0.0, gap_j=1.0, n=2)
    # A 1e-300 J step whose quotient were taken first would be about 1e300
    # bursts, which no count-down moves; a 5e-324 J one gives an inf quotient
    # from a level of 1.7e308 J, and a step of inf J a quotient of 0.
    @example(levels=[0.0, 1.7e308], burst_j=5e-324, gap_j=0.0, n=1)
    @example(levels=[0.0, 1.0], burst_j=1e-300, gap_j=0.0, n=10**9)
    @example(levels=[1e-300, 4.5e-300], burst_j=1e-300, gap_j=0.0, n=10**9)
    @example(levels=[0.0, 1.7e308], burst_j=1.7e308, gap_j=1.7e308, n=3)
    def test_closed_form_takes_the_most_bursts_that_fit(self, levels, burst_j, gap_j, n):
        floor, remaining = levels
        step = burst_j + gap_j
        count = fitting_bursts(remaining, floor, step, n)
        assert 0 <= count <= n
        assert count == 0 or remaining - count * step >= floor
        assert count == n or remaining - (count + 1) * step < floor

    def test_stretch_stops_at_the_slot_end(self):
        # In a run the gateway's tick at a slot's end is queued, so it is also
        # the horizon; here nothing else is queued and only the slot bounds it.
        node = _lone_node()
        engine = node.engine
        slot_end = seconds(1)
        engine.register("gateway", lambda eng, event: node.enter_slot(eng.now, slot_end))
        engine.schedule_at(0, "gateway", EventKind.POLL_TICK)
        engine.run_until(seconds(2))
        plan = node.plans[Mode.PERFORMANCE, Modality.OWC]
        interval = plan.interval_ns
        starts = range(interval, slot_end - plan.airtime_ns + 1, interval)
        # One record for the whole stretch, which expands to every burst.
        assert node.metrics.tx_intervals == [
            (interval, interval, plan.airtime_ns, len(starts))]
        assert tx_bursts(node.metrics) == [(t, t + plan.airtime_ns) for t in starts]
        # The poll tick, the first packet-ready, then each burst's end and
        # next packet-ready.
        assert engine.events_executed == 2 + 2 * len(starts)

    def test_stretch_refuses_a_tick_that_queues_into_its_window(self, monkeypatch):
        # A stretch runs through a world tick that queues nothing before its
        # next burst: the tick requeues 1 s on, past a window under 1 s, and
        # a node it evaluates is out of the slot, where it only parks. A tick
        # that queued an event at its own time would put that event behind
        # the stretch's clock, so the stretch raises.
        def tick_queuing_now(nodes, now, harvest_j):
            tick_nodes(nodes, now, harvest_j)
            nodes[0].engine.schedule_at(now, CHAIN_STEPS, EventKind.CHAIN_STEP, ())  # no members

        monkeypatch.setattr("hybridsim.runner.tick_nodes", tick_queuing_now)
        with pytest.raises(RuntimeError, match="the tick queued an event"):
            run(SHORT)


# Runs one short preset under perfbench/tracer.py and prints each span's name
# and its parent span's name.
_TRACED_RUN = """
import json
import tracer
from hybridsim import runner, scenario
spans = tracer.Tracer()
tracer.install(spans)
short = scenario.load_scenario(scenario.preset_path("paper_fig11")).replace(duration_s=20.0)
runner.run(short)
names = [spans.names[n] for n in spans.name]
print(json.dumps([[name, names[p] if p >= 0 else None] for name, p in zip(names, spans.parent)]))
"""


def test_tracer_times_each_action_prediction_inside_the_link_plan_build():
    # The tracer rebinds `runner.build_link_plans` and
    # `runner.predict_action_energy` by name, so the table's build must call
    # the prediction through `runner`'s global, or the traced
    # `energy.predict_calls` reads 0. It installs for the rest of a process.
    src = Path(hybridsim.__file__).resolve().parents[1]
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN],
                          env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{perfbench}"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout.splitlines()[-1])
    assert [name for name, _ in spans].count("runner.link_plan") == 1
    # One prediction per (mode, modality) row, each inside the build.
    assert [parent for name, parent in spans if name == "energy.predict"] == [
        "runner.link_plan"] * 6
