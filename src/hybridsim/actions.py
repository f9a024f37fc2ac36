"""Operating modes, communication modalities, and the per-run row of each
(mode, modality) action's facts: a reconfiguration decision is one row."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Mode(Enum):
    PERFORMANCE = "performance"
    CONSERVATION = "conservation"
    SLEEP = "sleep"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


class Modality(Enum):
    OWC = "owc"
    BLE = "ble"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


@dataclass(frozen=True, slots=True)
class ActionPlan:
    """One action's facts for a run, a row of `runner.build_link_plans` and
    what a policy returns: its modality's packet and link, its packet spacing
    (0 asleep), deliverable rate, trace labels, and joules predicted over one
    policy period."""

    mode: Mode
    modality: Modality
    airtime_ns: int
    interval_ns: int
    tx_current_ma: float
    success_prob: float
    snr_db: float
    rate_kbps: float
    tails: dict  # `metrics.TRACE_TAILS[mode, modality]`, by InterfaceState
    predicted_j: float = 0.0  # set from the other columns by `build_link_plans`
