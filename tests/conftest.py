"""Shared test helpers."""

from enum import Enum

import pytest

from hybridsim.actions import Action, ActionPlan, Mode, Modality, enumerate_actions
from hybridsim.optimizer import EunoTable, UtilityWeights


def action_rows(energies, rates):
    """A table of `ActionPlan` rows keyed like `runner.build_link_plans`'
    with the predicted joules and deliverable rate of each action in
    `energies` and `rates`; `EunoTable.build` reads no other column."""
    return {(a.mode, a.modality): ActionPlan(
        a.mode, a.modality, airtime_ns=0, interval_ns=0, tx_current_ma=0.0, success_prob=0.0,
        snr_db=0.0, rate_kbps=rates[a], tails={}, predicted_j=energies[a]) for a in energies}


def _euno_call(f_r=1.0, current=Modality.OWC, energies=None, rates=None,
               p_int=0.7, snr=None, sample=None, baseline=None,
               weights=UtilityWeights(), e_max_j=8.0):
    """Positional arguments of one `euno_select` call, the per-run table
    first. `energies` and `rates` may cover only `current`'s action set; the
    other modality's sleep action then takes the per-mode default."""
    other = Modality.BLE if current is Modality.OWC else Modality.OWC
    actions = [*enumerate_actions(current), Action(Mode.SLEEP, other)]
    energies = {**{a: {Mode.PERFORMANCE: 0.45, Mode.CONSERVATION: 0.15,
                       Mode.SLEEP: 0.01}[a.mode] for a in actions},
                **(energies or {})}
    rates = {**{a: {Mode.PERFORMANCE: 300.0, Mode.CONSERVATION: 60.0,
                    Mode.SLEEP: 0.0}[a.mode] for a in actions},
             **(rates or {})}
    snr = snr or {Modality.OWC: 70.0, Modality.BLE: 67.0}
    sample = snr[current] if sample is None else sample
    table = EunoTable.build(weights, e_max_j, p_int, action_rows(energies, rates))
    return table, f_r, current, sample if baseline is None else baseline, sample


@pytest.fixture()
def euno_call():
    """Builds `euno_select`'s arguments with defaults for every unspecified
    input."""
    return _euno_call


def tx_bursts(nm):
    """A node's `(start, end)` ns per burst, expanded from its run-length
    `tx_intervals` log of `(start, period, length, count)` records."""
    return [(start + i * period, start + i * period + length)
            for start, period, length, count in nm.tx_intervals
            for i in range(count)]


class OwcState(Enum):
    """The optical half of an `InterfaceState` label, as the trace spells it."""

    OFF = "OFF"
    SLEEP = "SLEEP"
    IDLE = "IDLE"
    TX = "TX"


class BleState(Enum):
    """The radio half of an `InterfaceState` label."""

    OFF = "OFF"
    IDLE = "IDLE"
    TX_BUSY = "TX_BUSY"


def interface_halves(state):
    """The `(OwcState, BleState)` halves of an `InterfaceState`."""
    owc, ble = state.value.split("|")
    return OwcState(owc), BleState(ble)
