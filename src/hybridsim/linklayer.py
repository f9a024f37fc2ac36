"""Interface state machines and BLE event timing.

Both interfaces are modeled in one explicit transition table. Pairs that are
not listed are deliberate no-ops rather than faults: the table in this module
is the normative behaviour of the artifact.
"""

from __future__ import annotations

import math
from enum import Enum

from .channel import PHY_BITS_PER_MS
from .kernel import EventKind


class OwcState(Enum):
    OFF = "OFF"
    SLEEP = "SLEEP"
    IDLE = "IDLE"
    TX = "TX"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


class BleState(Enum):
    OFF = "OFF"
    IDLE = "IDLE"
    TX_BUSY = "TX_BUSY"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


_E = EventKind

# One table serves both interfaces: their states are distinct enum members, so
# a (state, event) key names its interface. Battery-low dominates every state,
# and only a wake signal brings an interface back from OFF.
TRANSITIONS: dict[tuple[Enum, EventKind], Enum] = {
    # Optical interface: uplink transmitter with a dedicated sleep state.
    # Sleep is entered only from quiescent states (the MAC never sleeps an
    # interface mid-transfer).
    (OwcState.IDLE, _E.TRANSMIT_START): OwcState.TX,
    (OwcState.TX, _E.TRANSMIT_END): OwcState.IDLE,
    (OwcState.IDLE, _E.SLEEP_SIGNAL): OwcState.SLEEP,
    (OwcState.SLEEP, _E.WAKE_SIGNAL): OwcState.IDLE,
    (OwcState.OFF, _E.WAKE_SIGNAL): OwcState.IDLE,
    # Radio interface: no sleep state of its own; a sleep signal powers it
    # off and a wake signal restores the idle (connected) state.
    (BleState.IDLE, _E.TRANSMIT_START): BleState.TX_BUSY,
    (BleState.TX_BUSY, _E.TRANSMIT_END): BleState.IDLE,
    (BleState.IDLE, _E.SLEEP_SIGNAL): BleState.OFF,
    (BleState.OFF, _E.WAKE_SIGNAL): BleState.IDLE,
}
for _s in (*OwcState, *BleState):
    TRANSITIONS[(_s, _E.BATTERY_LOW)] = type(_s).OFF


def fsm_dispatch(current, event_kind: EventKind):
    """Return the successor state for (state, event); undefined pairs no-op."""
    return TRANSITIONS.get((current, event_kind), current)


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
