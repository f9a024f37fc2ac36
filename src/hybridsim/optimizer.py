"""Node reconfiguration policies.

EUNO (energy-aware utility-based node optimization) scores every candidate
(mode, modality) action with a weighted sum of modality, screen, localization,
and predicted-energy utilities, guarded by a hard sleep rule below the
critical energy fraction or at an empty buffer. The terms that do not change
within a run are scored once into an `EunoTable`. ETNO is the threshold
baseline: two energy thresholds drive mode changes, with modality following
the best SNR (or pinned to the optical link in the OWC-only variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actions import Action, ActionPlan, Mode, Modality, enumerate_actions

_MODE_RANK = {Mode.PERFORMANCE: 2, Mode.CONSERVATION: 1, Mode.SLEEP: 0}


@dataclass(frozen=True)
class UtilityWeights:
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


def energy_weight(f_r: float, f_c: float) -> float:
    """Dynamic weight of the energy utility: 1 at the critical level, 0 when
    full, clamped to [0, 1] outside that span."""
    value = 1.0 - (f_r - f_c) / (1.0 - f_c)
    return min(1.0, max(0.0, value))


def _matched_reward(action: Action, demanded: bool, reward: float) -> float:
    """Reward performance when the forecast demands the feature and
    conservation when it does not; sleep earns nothing."""
    if action.mode is Mode.PERFORMANCE and demanded:
        return reward
    if action.mode is Mode.CONSERVATION and not demanded:
        return reward
    return 0.0


def screen_utility(action: Action, p_int: float, theta_s: float,
                   alpha: float) -> float:
    """Reward actions whose display policy matches the interaction forecast."""
    return _matched_reward(action, p_int > theta_s, alpha)


def ewma_update(baseline_prev: float, sample: float, lam: float) -> float:
    return lam * sample + (1.0 - lam) * baseline_prev


def mobility_probability(baseline: float, sample: float, k: float,
                         c: float) -> float:
    """Sigmoid of the deviation between the smoothed and instantaneous SNR;
    0, its limit, where the exponential overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-k * (abs(baseline - sample) - c)))
    except OverflowError:
        return 0.0


def energy_utility(predicted_j: float, e_max_j: float) -> float:
    return 1.0 - min(predicted_j, e_max_j) / e_max_j


@dataclass(frozen=True)
class EunoTable:
    """EUNO's per-run terms, built once from inputs that a run never changes.

    `rows[current]` holds one tuple per action of
    `enumerate_actions(current)`, in that order: `p_p·x_p + p_t·x_t`,
    `p_c·x_c + p_e·x_e`, `p_ch·x_ch`, `p_s·screen`, `p_l·localization` when
    mobility is not and is forecast, the energy utility, the tie key and the
    action. Only `f_r` and the mobility forecast vary between calls.
    """

    weights: UtilityWeights
    rows: dict[Modality, tuple[tuple, ...]]

    @classmethod
    def build(cls, weights: UtilityWeights, e_max_j: float, p_int: float,
              plans: dict[tuple[Mode, Modality], ActionPlan]) -> EunoTable:
        """Score the predicted joules and deliverable rate of `plans`' rows,
        which must hold all six distinct actions."""
        w = weights
        rows = {}
        for current in Modality:
            actions = enumerate_actions(current)
            rows_of = [plans[a.mode, a.modality] for a in actions]
            # Throughput and energy efficiency are normalized over the action set.
            max_rate = max(plan.rate_kbps for plan in rows_of)
            max_energy = max(plan.predicted_j for plan in rows_of)
            scored = []
            for a, plan in zip(actions, rows_of):
                energy = plan.predicted_j
                x_t = plan.rate_kbps / max_rate if max_rate > 0 else 0.0
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
                baseline_db: float, sample_db: float) -> Action:
    """Pick the highest-utility action, with the hard sleep guard first: below
    the critical fraction, or with an empty buffer, the node sleeps.

    Each action scores `p_M·(f_r·A + (1−f_r)·B − C) + S + L + p_E·E` from its
    table row, the same doubles as the tests' reference `total_utility`.
    Ties break deterministically: prefer keeping the current modality, then
    the higher mode, then the optical link.
    """
    w = table.weights
    if f_r < w.f_c or f_r == 0.0:
        return Action(Mode.SLEEP, current)
    moving = mobility_probability(baseline_db, sample_db, w.sigmoid_k,
                                  w.sigmoid_c_db) > w.theta_l
    p_m, p_e, rest = w.p_m, energy_weight(f_r, w.f_c), 1.0 - f_r
    best_key = best = None
    for a, b, c, screen, loc, energy, tie, action in table.rows[current]:
        key = (p_m * (f_r * a + rest * b - c) + screen + loc[moving] + p_e * energy, tie)
        if best_key is None or key > best_key:
            best_key, best = key, action
    return best


def etno_select(f_r: float, sleep_threshold: float, conservation_threshold: float,
                current_modality: Modality, best_snr_modality: Modality,
                owc_only: bool = False) -> Action:
    """Threshold baseline: sleep below the sleep threshold or with an empty
    buffer, conservation on the radio link between the thresholds, full
    performance on the best-SNR modality above. The OWC-only variant never
    leaves the optical link."""
    if f_r < sleep_threshold or f_r == 0.0:
        return Action(Mode.SLEEP, current_modality)
    if f_r < conservation_threshold:
        modality = Modality.OWC if owc_only else Modality.BLE
        return Action(Mode.CONSERVATION, modality)
    modality = Modality.OWC if owc_only else best_snr_modality
    return Action(Mode.PERFORMANCE, modality)
