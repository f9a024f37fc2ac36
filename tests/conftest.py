"""Shared test helpers."""

import pytest

from hybridsim.actions import Mode, Modality, enumerate_actions
from hybridsim.optimizer import NodeObservation


def _observation(f_r=1.0, current=Modality.OWC, energies=None, rates=None,
                 p_int=0.7, snr=None, sample=None, baseline=None):
    actions = enumerate_actions(current)
    if energies is None:
        energies = {a: {Mode.PERFORMANCE: 0.45, Mode.CONSERVATION: 0.15,
                        Mode.SLEEP: 0.01}[a.mode] for a in actions}
    if rates is None:
        rates = {a: {Mode.PERFORMANCE: 300.0, Mode.CONSERVATION: 60.0,
                     Mode.SLEEP: 0.0}[a.mode] for a in actions}
    snr = snr or {Modality.OWC: 70.0, Modality.BLE: 67.0}
    sample = snr[current] if sample is None else sample
    return NodeObservation(
        f_r=f_r, current_modality=current,
        predicted_energy_j=energies, deliverable_rate_kbps=rates,
        p_int=p_int, snr_sample_db=sample,
        ewma_baseline_db=sample if baseline is None else baseline)


@pytest.fixture()
def observation():
    """Builds a NodeObservation with defaults for every unspecified input."""
    return _observation
