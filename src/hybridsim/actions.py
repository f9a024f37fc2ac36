"""Operating modes, communication modalities, the (mode, modality) action
tuple that reconfiguration decisions are expressed in, and the per-run row of
each action's facts."""

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


@dataclass(frozen=True)
class Action:
    mode: Mode
    modality: Modality


def enumerate_actions(current_modality: Modality) -> list[Action]:
    """The fixed action set: both modalities for the two active modes, plus a
    single sleep action carrying the current modality so |A| stays constant."""
    actions = [Action(mode, modality)
               for mode in (Mode.PERFORMANCE, Mode.CONSERVATION)
               for modality in (Modality.OWC, Modality.BLE)]
    actions.append(Action(Mode.SLEEP, current_modality))
    return actions


@dataclass(frozen=True, slots=True)
class ActionPlan:
    """One action's facts for a run, a row of `runner.build_link_plans`: its
    modality's packet and link, its packet spacing (0 asleep), deliverable
    rate, trace labels, and joules predicted over one policy period."""

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
