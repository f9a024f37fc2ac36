"""Interface state machines and BLE event timing.

Both interfaces are modeled as explicit transition tables. Pairs that are not
listed are deliberate no-ops rather than faults: the table in this module is
the normative behaviour of the artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .kernel import EventKind


class OwcState(Enum):
    OFF = "OFF"
    SLEEP = "SLEEP"
    IDLE = "IDLE"
    TX = "TX"
    RX = "RX"
    TX_RX = "TX_RX"


class BleState(Enum):
    OFF = "OFF"
    IDLE = "IDLE"
    TX_BUSY = "TX_BUSY"
    RX_BUSY = "RX_BUSY"


_E = EventKind

# Optical interface: duplex-capable, with a dedicated sleep state. Battery
# events dominate every state; sleep is entered only from quiescent states
# (the MAC never sleeps an interface mid-transfer).
OWC_TRANSITIONS: dict[tuple[OwcState, EventKind], OwcState] = {
    (OwcState.IDLE, _E.TRANSMIT_START): OwcState.TX,
    (OwcState.IDLE, _E.RECEIVE_START): OwcState.RX,
    (OwcState.TX, _E.TRANSMIT_END): OwcState.IDLE,
    (OwcState.TX, _E.RECEIVE_START): OwcState.TX_RX,
    (OwcState.RX, _E.RECEIVE_END): OwcState.IDLE,
    (OwcState.RX, _E.TRANSMIT_START): OwcState.TX_RX,
    (OwcState.TX_RX, _E.TRANSMIT_END): OwcState.RX,
    (OwcState.TX_RX, _E.RECEIVE_END): OwcState.TX,
    (OwcState.IDLE, _E.SLEEP_SIGNAL): OwcState.SLEEP,
    (OwcState.SLEEP, _E.WAKE_SIGNAL): OwcState.IDLE,
    (OwcState.OFF, _E.BATTERY_CHARGED): OwcState.IDLE,
}
for _s in OwcState:
    OWC_TRANSITIONS[(_s, _E.BATTERY_LOW)] = OwcState.OFF

# Radio interface: no sleep state of its own; a sleep signal powers it off
# and a wake signal restores the idle (connected) state.
BLE_TRANSITIONS: dict[tuple[BleState, EventKind], BleState] = {
    (BleState.IDLE, _E.TRANSMIT_START): BleState.TX_BUSY,
    (BleState.IDLE, _E.RECEIVE_START): BleState.RX_BUSY,
    (BleState.TX_BUSY, _E.TRANSMIT_END): BleState.IDLE,
    (BleState.RX_BUSY, _E.RECEIVE_END): BleState.IDLE,
    (BleState.IDLE, _E.SLEEP_SIGNAL): BleState.OFF,
    (BleState.OFF, _E.WAKE_SIGNAL): BleState.IDLE,
    (BleState.OFF, _E.BATTERY_CHARGED): BleState.IDLE,
}
for _s in BleState:
    BLE_TRANSITIONS[(_s, _E.BATTERY_LOW)] = BleState.OFF


def fsm_dispatch(current, event_kind: EventKind):
    """Return the successor state for (state, event); undefined pairs no-op."""
    if isinstance(current, OwcState):
        table = OWC_TRANSITIONS
    elif isinstance(current, BleState):
        table = BLE_TRANSITIONS
    else:
        raise TypeError(f"not an interface state: {current!r}")
    return table.get((current, event_kind), current)


@dataclass(frozen=True)
class BleTimingConfig:
    """Connection/advertising event structure of the radio link."""

    conn_interval_ms: float = 45.0
    adv_interval_ms: float = 152.5
    adv_event_len_ms: float = 4.18
    conn_event_len_ms: float = 2.14
    uplink_tx_len_ms: float = 3.13
    downlink_rx_len_ms: float = 2.33
    mtu_bytes: int = 247
    # Reference payload whose measured airtime anchors the linear model.
    reference_payload_bytes: int = 116
    reference_phy_rate: str = "2M"

    def __post_init__(self):
        if self.conn_event_len_ms >= self.conn_interval_ms:
            raise ValueError("connection event must be shorter than the interval")
        if self.adv_event_len_ms >= self.adv_interval_ms:
            raise ValueError("advertising event must be shorter than the interval")

    def event_overhead_ms(self, phy_rate: str) -> float:
        """Per-connection-event overhead implied by the reference payload."""
        rate = _phy_bits_per_ms(self.reference_phy_rate)
        overhead = self.uplink_tx_len_ms - self.reference_payload_bytes * 8 / rate
        # Overhead is a radio-time constant, independent of the payload PHY.
        return overhead


def _phy_bits_per_ms(phy_rate: str) -> float:
    if phy_rate == "1M":
        return 1e3
    if phy_rate == "2M":
        return 2e3
    raise ValueError(f"unknown phy rate {phy_rate}")


def ble_airtime(cfg: BleTimingConfig, payload_bytes: int, phy_rate: str = "2M") -> float:
    """Radio-active time in ms to move `payload_bytes` up the link.

    Linear in the serialized bits at the given PHY rate plus a fixed
    per-connection-event overhead; payloads beyond the MTU segment into
    multiple connection events and the total is returned.
    """
    if payload_bytes < 0:
        raise ValueError("payload size cannot be negative")
    overhead = cfg.event_overhead_ms(phy_rate)
    events = max(1, math.ceil(payload_bytes / cfg.mtu_bytes))
    return events * overhead + payload_bytes * 8 / _phy_bits_per_ms(phy_rate)
