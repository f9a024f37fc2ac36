"""Operating modes, communication modalities, and the (mode, modality) action
tuple that reconfiguration decisions are expressed in."""

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
