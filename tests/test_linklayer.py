"""The interface state machine, radio event timing, and the polling schedule."""

import pytest

from hybridsim.actions import Modality
from hybridsim.kernel import Engine, EventKind, seconds
from hybridsim.linklayer import CONN_EVENT_LEN_MS, InterfaceState, ble_airtime, fsm_dispatch
from hybridsim.runner import _Controller
from hybridsim.scenario import Scenario, ScenarioError

E = EventKind


I = InterfaceState
# Every key of the interface table that changes the state, and its successor;
# a battery-low edge sends every state to OFF, and every other key is a no-op.
MOVES = {
    (I.IDLE, E.TRANSMIT_START, Modality.OWC): I.OWC_TX,
    (I.IDLE, E.TRANSMIT_START, Modality.BLE): I.BLE_TX,
    (I.OWC_TX, E.TRANSMIT_END, None): I.IDLE,
    (I.BLE_TX, E.TRANSMIT_END, None): I.IDLE,
    (I.IDLE, E.SLEEP_SIGNAL, None): I.SLEEP,
    (I.SLEEP, E.WAKE_SIGNAL, None): I.IDLE,
    (I.OFF, E.WAKE_SIGNAL, None): I.IDLE,
}


@pytest.mark.parametrize("state, event, modality", [
    pytest.param(state, event, modality,
                 id="-".join([state.name, event.name] + ([modality.name] if modality else [])))
    for state in I for event in E
    for modality in (Modality if event is E.TRANSMIT_START else (None,))])
def test_interface_transition_table(state, event, modality):
    # One case per key. Only a transmit start names its modality. So a
    # second start while a burst is in flight, on either interface, stays
    # where it is, and only a wake signal (never a battery-charged edge)
    # powers the interfaces on.
    expected = I.OFF if event is E.BATTERY_LOW else MOVES.get((state, event, modality), state)
    assert fsm_dispatch(state, event, modality) is expected


class TestBleTiming:
    def test_reference_payload_airtime(self):
        assert ble_airtime(116, "2M", 247) == pytest.approx(3.13, abs=1e-9)

    def test_empty_payload_keeps_event_overhead(self):
        overhead = ble_airtime(0, "2M", 247)
        assert 0.0 < overhead < 3.13
        assert overhead == pytest.approx(3.13 - 116 * 8 / 2e3, abs=1e-9)

    def test_double_payload_scales_linearly(self):
        payload_portion = 116 * 8 / 2e3
        expected = 2 * payload_portion + ble_airtime(0, "2M", 247)
        assert ble_airtime(232, "2M", 247) == pytest.approx(expected, abs=1e-9)

    def test_beyond_mtu_segments_into_events(self):
        one_event_overhead = ble_airtime(0, "2M", 247)
        total = ble_airtime(512, "2M", 247)
        assert total == pytest.approx(3 * one_event_overhead + 512 * 8 / 2e3, abs=1e-9)

    def test_one_mbit_phy_doubles_payload_time(self):
        slow = ble_airtime(116, "1M", 247)
        assert slow > ble_airtime(116, "2M", 247)

    def test_interval_invariants(self):
        with pytest.raises(ScenarioError, match="conn_interval_ms"):
            Scenario(conn_interval_ms=CONN_EVENT_LEN_MS)

    def test_connection_duty_cycle_at_defaults(self):
        duty = CONN_EVENT_LEN_MS / Scenario().conn_interval_ms
        assert duty == pytest.approx(0.0476, abs=5e-4)


def _poll_slots(node_count, sleep, count):
    """(in_slot, awake) of every node, sampled 1 s into each 2 s poll slot."""
    scenario = Scenario(duration_s=2.0 * count, init_delay_s=1.0,
                        node_count=node_count, poll_slot_s=2.0,
                        inter_transmission_sleep=sleep, optimizer="etno")
    engine = Engine()
    controller = _Controller(scenario, engine)
    controller.start()
    samples = []
    for k in range(count):
        engine.run_until(seconds(2.0 + 2.0 * k))
        samples.append([(n.in_slot, n.awake) for n in controller.nodes])
    return samples


class TestPollSchedule:
    def test_round_robin_order(self):
        samples = _poll_slots(3, True, 7)
        holders = [[i for i, (in_slot, _) in enumerate(s) if in_slot] for s in samples]
        assert holders == [[0], [1], [2], [0], [1], [2], [0]]

    def test_wake_and_sleep_signals(self):
        first, second = _poll_slots(2, True, 2)
        assert first == [(True, True), (False, False)]
        assert second == [(False, False), (True, True)]

    def test_no_sleep_signal_when_disabled(self):
        _, second = _poll_slots(2, False, 2)
        assert second == [(False, True), (True, True)]

    def test_single_node_polled_every_slot(self):
        assert _poll_slots(1, True, 3) == [[(True, True)]] * 3

    def test_empty_schedule_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(node_count=0)
