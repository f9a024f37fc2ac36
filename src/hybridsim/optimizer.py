"""Node reconfiguration policies.

A policy returns one row of the run's action table (`ActionPlan`). EUNO
(energy-aware utility-based node optimization) scores every candidate
(mode, modality) action with a weighted sum of modality, screen, localization,
and predicted-energy utilities, guarded by a hard sleep rule below the
critical energy fraction or at an empty buffer. The terms that do not change
within a run are scored once into an `EunoTable`. ETNO is the threshold
baseline: two energy thresholds drive mode changes, with modality following
the best SNR (or pinned to the optical link in the OWC-only variant).
"""

from __future__ import annotations

import math

from .actions import ActionPlan, Mode, Modality
from .record import Record

_MODE_RANK = {Mode.PERFORMANCE: 2, Mode.CONSERVATION: 1, Mode.SLEEP: 0}


class UtilityWeights(Record):
    """Static weights, sub-weights, rewards, and thresholds of the policy,
    which `Scenario` checks at load."""

    p_m: float = 0.91
    p_s: float = 0.045
    p_l: float = 0.045
    p_p: float = 2.0
    p_t: float = 2.0
    p_c: float = 1.0
    p_e: float = 0.8
    p_ch: float = 0.1
    alpha: float = 1.0
    beta: float = 1.0
    theta_s: float = 0.5
    theta_l: float = 0.5
    f_c: float = 0.2
    ewma_lambda: float = 0.2
    sigmoid_k: float = 1.5
    sigmoid_c_db: float = 3.0
    period_s: float = 10.0


def _matched_reward(row: ActionPlan, demanded: bool, reward: float) -> float:
    """Reward performance when the forecast demands the feature and
    conservation when it does not; sleep earns nothing."""
    if row.mode is Mode.PERFORMANCE and demanded:
        return reward
    if row.mode is Mode.CONSERVATION and not demanded:
        return reward
    return 0.0


def screen_utility(row: ActionPlan, p_int: float, theta_s: float,
                   alpha: float) -> float:
    """Reward actions whose display policy matches the interaction forecast."""
    return _matched_reward(row, p_int > theta_s, alpha)


def ewma_update(baseline_prev: float, sample: float, lam: float) -> float:
    return lam * sample + (1.0 - lam) * baseline_prev


def energy_utility(predicted_j: float, e_max_j: float) -> float:
    return 1.0 - min(predicted_j, e_max_j) / e_max_j


class EunoTable(Record):
    """EUNO's per-run terms, built once from inputs that a run never changes.

    `rows[current]` holds one tuple per action of the fixed set: the four
    active rows, performance then conservation, each optical then radio, and
    last the sleep row of `current`, so |A| stays 5. A tuple holds
    `p_p·x_p + p_t·x_t`, `p_c·x_c + p_e·x_e`, `p_ch·x_ch`, `p_s·screen`,
    `p_l·localization` when mobility is not and is forecast, the energy
    utility, the tie key and the row. Only `f_r` and the mobility forecast
    vary between calls.
    """

    weights: UtilityWeights
    rows: dict[Modality, tuple[tuple, ...]]

    @classmethod
    def build(cls, weights: UtilityWeights, e_max_j: float, p_int: float,
              plans: dict[tuple[Mode, Modality], ActionPlan]) -> EunoTable:
        """Score the predicted joules and delivered rate (rate times packet
        success probability) of `plans`' rows, which must hold all six
        distinct actions."""
        w = weights
        rows = {}
        for current in Modality:
            actions = [plans[mode, modality]
                       for mode in (Mode.PERFORMANCE, Mode.CONSERVATION)
                       for modality in (Modality.OWC, Modality.BLE)]
            actions.append(plans[Mode.SLEEP, current])
            # Throughput and energy efficiency are normalized over the action
            # set; throughput is the rate a row delivers over its link.
            max_rate = max(a.rate_kbps * a.success_prob for a in actions)
            max_energy = max(a.predicted_j for a in actions)
            scored = []
            for a in actions:
                energy = a.predicted_j
                x_t = a.rate_kbps * a.success_prob / max_rate if max_rate > 0 else 0.0
                x_e = 1.0 - energy / max_energy if max_energy > 0 else 0.0
                keeps = a.modality is current
                scored.append((
                    w.p_p * float(a.mode is Mode.PERFORMANCE) + w.p_t * x_t,
                    w.p_c * float(a.mode is Mode.CONSERVATION) + w.p_e * x_e,
                    w.p_ch * (0.0 if keeps else 1.0),
                    w.p_s * screen_utility(a, p_int, w.theta_s, w.alpha),
                    (w.p_l * _matched_reward(a, False, w.beta),
                     w.p_l * _matched_reward(a, True, w.beta)),
                    energy_utility(energy, e_max_j),
                    (int(keeps), _MODE_RANK[a.mode], int(a.modality is Modality.OWC)),
                    a))
            rows[current] = tuple(scored)
        return cls(weights, rows)


def euno_select(table: EunoTable, f_r: float, current: Modality,
                baseline_db: float, sample_db: float) -> ActionPlan:
    """Pick the highest-utility row, with the hard sleep guard first: below
    the critical fraction, or with an empty buffer, the node sleeps.

    Each action scores `p_M·(f_r·A + (1−f_r)·B − C) + S + L + p_E·E` from its
    table row, the same doubles as the tests' reference `total_utility`. The
    energy weight `p_E` is 1 at the critical level and 0 when full, clamped
    to [0, 1]. `L` follows the mobility forecast: the sigmoid of the
    deviation between the smoothed and instantaneous SNR, 0 (its limit)
    where the exponential overflows, against `theta_l`.
    Ties break deterministically: prefer keeping the current modality, then
    the higher mode, then the optical link; a row's tie key is read only
    when its utility equals the best so far.
    """
    w = table.weights
    if f_r < w.f_c or f_r == 0.0:
        return table.rows[current][-1][-1]  # the sleep row of `current`
    try:
        mobility = 1.0 / (1.0 + math.exp(-w.sigmoid_k * (abs(baseline_db - sample_db)
                                                         - w.sigmoid_c_db)))
    except OverflowError:
        mobility = 0.0
    moving = mobility > w.theta_l
    p_e = 1.0 - (f_r - w.f_c) / (1.0 - w.f_c)
    p_e = (p_e if p_e < 1.0 else 1.0) if p_e > 0.0 else 0.0  # `min(1.0, max(0.0, p_e))`
    p_m, rest = w.p_m, 1.0 - f_r
    best = None
    for a, b, c, screen, loc, energy, tie, row in table.rows[current]:
        utility = p_m * (f_r * a + rest * b - c) + screen + loc[moving] + p_e * energy
        if best is None or utility > best_utility or utility == best_utility and tie > best_tie:
            best_utility, best_tie, best = utility, tie, row
    return best


def etno_select(plans: dict[tuple[Mode, Modality], ActionPlan], f_r: float,
                sleep_threshold: float, conservation_threshold: float,
                current_modality: Modality, best_snr_modality: Modality,
                owc_only: bool = False) -> ActionPlan:
    """Threshold baseline: sleep below the sleep threshold or with an empty
    buffer, conservation on the radio link between the thresholds, full
    performance on the best-SNR modality above; the row of `plans`. The
    OWC-only variant never leaves the optical link."""
    if f_r < sleep_threshold or f_r == 0.0:
        return plans[Mode.SLEEP, current_modality]
    if f_r < conservation_threshold:
        return plans[Mode.CONSERVATION, Modality.OWC if owc_only else Modality.BLE]
    return plans[Mode.PERFORMANCE, Modality.OWC if owc_only else best_snr_modality]
