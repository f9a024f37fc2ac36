"""The node's interface state machine, BLE event timing and packet timing.

The optical and radio interfaces are modeled as one machine in one explicit
transition table: every sleep, wake and battery-low signal moves both, and at
most one of them transmits. Keys that are not listed are deliberate no-ops
rather than faults: the table in this module is the normative behaviour of
the artifact.
"""

from __future__ import annotations

import math
from enum import Enum

from .actions import Mode, Modality
from .channel import PHY_BITS_PER_MS
from .kernel import EventKind, millis


class InterfaceState(Enum):
    """Both interfaces' states; each value is the trace's `<optical>|<radio>`
    label. The optical interface has a sleep state of its own, while a sleep
    signal powers the radio off."""

    OFF = "OFF|OFF"
    SLEEP = "SLEEP|OFF"
    IDLE = "IDLE|IDLE"
    OWC_TX = "TX|IDLE"
    BLE_TX = "IDLE|TX_BUSY"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


_E, _I = EventKind, InterfaceState

# Keyed by (state, event, modality): a transmit start names its modality, no
# other event does. Battery-low sends every state to OFF, only a wake signal
# powers the interfaces on, and a sleep signal acts only on IDLE (the MAC never
# sleeps an interface mid-transfer).
TRANSITIONS: dict[tuple[InterfaceState, EventKind, Modality | None], InterfaceState] = {
    (_I.IDLE, _E.TRANSMIT_START, Modality.OWC): _I.OWC_TX,
    (_I.IDLE, _E.TRANSMIT_START, Modality.BLE): _I.BLE_TX,
    (_I.OWC_TX, _E.TRANSMIT_END, None): _I.IDLE,
    (_I.BLE_TX, _E.TRANSMIT_END, None): _I.IDLE,
    (_I.IDLE, _E.SLEEP_SIGNAL, None): _I.SLEEP,
    (_I.SLEEP, _E.WAKE_SIGNAL, None): _I.IDLE,
    (_I.OFF, _E.WAKE_SIGNAL, None): _I.IDLE,
    **{(state, _E.BATTERY_LOW, None): _I.OFF for state in _I},
}


def fsm_dispatch(current: InterfaceState, event_kind: EventKind,
                 modality: Modality | None = None) -> InterfaceState:
    """Return the successor state for the key; undefined keys no-op."""
    return TRANSITIONS.get((current, event_kind, modality), current)


# Radio timing that no scenario sets: the connection event length bounds the
# connection interval, and one measured uplink (3.13 ms for a 116-byte payload
# on the 2M PHY) anchors the per-event overhead of the airtime model.
CONN_EVENT_LEN_MS = 2.14
REFERENCE_UPLINK_MS = 3.13
REFERENCE_PAYLOAD_BYTES = 116
REFERENCE_PHY_RATE = "2M"


def ble_airtime(payload_bytes: int, phy_rate: str, mtu_bytes: int) -> float:
    """Radio-active time in ms to move `payload_bytes` up the link.

    Linear in the serialized bits at the given PHY rate plus a fixed
    per-connection-event overhead; payloads beyond the MTU segment into
    multiple connection events and the total is returned.
    """
    # Overhead is a radio-time constant, independent of the payload PHY.
    overhead = (REFERENCE_UPLINK_MS
                - REFERENCE_PAYLOAD_BYTES * 8 / PHY_BITS_PER_MS[REFERENCE_PHY_RATE])
    events = max(1, math.ceil(payload_bytes / mtu_bytes))
    return events * overhead + payload_bytes * 8 / PHY_BITS_PER_MS[phy_rate]


def packet_spans(scenario) -> dict[tuple[Mode, Modality], tuple[int, int]]:
    """Each action row's airtime and packet spacing in ns for a `Scenario`, by `(mode,
    modality)`: spacing 0 asleep, else never below the airtime nor, on the radio (one packet
    per connection event), the connection interval. Too many bits overflow to inf."""
    bits = scenario.packet_bytes * 8.0
    links = ((Modality.OWC, bits / scenario.owc_phy_rate_kbps, 0.0),
             (Modality.BLE, ble_airtime(scenario.packet_bytes, scenario.ble_phy_rate,
                                        scenario.mtu_bytes), scenario.conn_interval_ms))
    rates = ((Mode.PERFORMANCE, scenario.target_rate_kbps),
             (Mode.CONSERVATION, scenario.conservation_rate_kbps), (Mode.SLEEP, 0))
    return {(mode, modality): (millis(airtime), rate and millis(max(bits / rate, airtime, floor)))
            for modality, airtime, floor in links for mode, rate in rates}
