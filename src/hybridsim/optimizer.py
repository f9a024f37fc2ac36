"""Node reconfiguration policies.

EUNO (energy-aware utility-based node optimization) scores every candidate
(mode, modality) action with a weighted sum of modality, screen, localization,
and predicted-energy utilities, guarded by a hard sleep rule below the
critical energy fraction. ETNO is the threshold baseline: two energy
thresholds drive mode changes, with modality following the best SNR (or
pinned to the optical link in the OWC-only variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .actions import Action, Mode, Modality, enumerate_actions

_MODE_RANK = {Mode.PERFORMANCE: 2, Mode.CONSERVATION: 1, Mode.SLEEP: 0}


@dataclass(frozen=True)
class UtilityWeights:
    """Static weights, sub-weights, rewards, and thresholds of the policy."""

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

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if abs(self.p_m + self.p_s + self.p_l - 1.0) > 1e-9:
            raise ValueError(
                f"static weights p_m, p_s and p_l must sum to 1: p_M+p_S+p_L = "
                f"{self.p_m + self.p_s + self.p_l}")
        if not 0.0 < self.ewma_lambda <= 1.0:
            raise ValueError("ewma_lambda must be in (0, 1]")
        if not 0.0 <= self.f_c < 1.0:
            raise ValueError("f_c must be in [0, 1)")
        if self.sigmoid_k <= 0 or self.period_s <= 0:
            raise ValueError("sigmoid_k and period_s must be positive")


@dataclass(frozen=True)
class NodeObservation:
    """Snapshot the policy decides on.

    `predicted_energy_j` and `deliverable_rate_kbps` are keyed by action and
    must hold every action of the action set; they may hold more (the runner
    passes one pair of dicts over all six distinct actions). The EWMA
    baseline and the instantaneous SNR sample feed the mobility predictor.
    """

    f_r: float
    current_modality: Modality
    predicted_energy_j: dict[Action, float]
    deliverable_rate_kbps: dict[Action, float]
    p_int: float = 0.0
    snr_sample_db: float = 0.0
    ewma_baseline_db: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.f_r <= 1.0:
            raise ValueError(f"energy fraction out of range: {self.f_r}")
        if not 0.0 <= self.p_int <= 1.0:
            raise ValueError(f"interaction probability out of range: {self.p_int}")


@dataclass(frozen=True)
class ModalityScores:
    x_p: float
    x_c: float
    x_t: float
    x_e: float
    x_ch: float


def energy_weight(f_r: float, f_c: float) -> float:
    """Dynamic weight of the energy utility: 1 at the critical level, 0 when
    full, clamped to [0, 1] outside that span."""
    if f_c >= 1.0:
        raise ValueError("critical fraction must be below 1")
    value = 1.0 - (f_r - f_c) / (1.0 - f_c)
    return min(1.0, max(0.0, value))


def modality_utility(f_r: float, scores: ModalityScores,
                     weights: UtilityWeights) -> float:
    return (f_r * (weights.p_p * scores.x_p + weights.p_t * scores.x_t)
            + (1.0 - f_r) * (weights.p_c * scores.x_c + weights.p_e * scores.x_e)
            - weights.p_ch * scores.x_ch)


def _requirement(probability: float, threshold: float) -> bool:
    return probability > threshold


def screen_utility(action: Action, p_int: float, theta_s: float,
                   alpha: float) -> float:
    """Reward actions whose display policy matches the interaction forecast."""
    demanded = _requirement(p_int, theta_s)
    if action.mode is Mode.PERFORMANCE and demanded:
        return alpha
    if action.mode is Mode.CONSERVATION and not demanded:
        return alpha
    return 0.0


def localization_utility(action: Action, p_m: float, theta_l: float,
                         beta: float) -> float:
    """Reward actions whose localization policy matches the mobility forecast."""
    demanded = _requirement(p_m, theta_l)
    if action.mode is Mode.PERFORMANCE and demanded:
        return beta
    if action.mode is Mode.CONSERVATION and not demanded:
        return beta
    return 0.0


def ewma_update(baseline_prev: float, sample: float, lam: float) -> float:
    if not 0.0 < lam <= 1.0:
        raise ValueError("smoothing constant must be in (0, 1]")
    return lam * sample + (1.0 - lam) * baseline_prev


def mobility_probability(baseline: float, sample: float, k: float,
                         c: float) -> float:
    """Sigmoid of the deviation between the smoothed and instantaneous SNR."""
    if k <= 0:
        raise ValueError("sigmoid slope must be positive")
    delta = abs(baseline - sample)
    return 1.0 / (1.0 + math.exp(-k * (delta - c)))


def energy_utility(predicted_j: float, e_max_j: float) -> float:
    if e_max_j <= 0:
        raise ValueError("maximum energy must be positive")
    return 1.0 - min(predicted_j, e_max_j) / e_max_j


@dataclass(frozen=True)
class UtilityBreakdown:
    modality: float
    screen: float
    localization: float
    energy: float


def total_utility(components: UtilityBreakdown, weights: UtilityWeights,
                  f_r: float) -> float:
    p_e = energy_weight(f_r, weights.f_c)
    return (weights.p_m * components.modality
            + weights.p_s * components.screen
            + weights.p_l * components.localization
            + p_e * components.energy)


def euno_select(obs: NodeObservation, weights: UtilityWeights,
                e_max_j: float, action_set: list[Action] | None = None) -> Action:
    """Pick the highest-utility action, with the hard sleep guard first.

    Ties break deterministically: prefer keeping the current modality, then
    the higher mode, then the optical link.
    """
    if action_set is None:
        action_set = enumerate_actions(obs.current_modality)
    if not action_set:
        raise ValueError("action set is empty")
    if obs.f_r < weights.f_c:
        return Action(Mode.SLEEP, obs.current_modality)
    p_m = mobility_probability(obs.ewma_baseline_db, obs.snr_sample_db,
                               weights.sigmoid_k, weights.sigmoid_c_db)
    rates, energies = obs.deliverable_rate_kbps, obs.predicted_energy_j
    # Throughput and energy efficiency are normalized over the action set.
    max_rate = max(rates[a] for a in action_set)
    max_energy = max(energies[a] for a in action_set)

    def rank(action: Action):
        energy = energies[action]
        scores = ModalityScores(
            x_p=1.0 if action.mode is Mode.PERFORMANCE else 0.0,
            x_c=1.0 if action.mode is Mode.CONSERVATION else 0.0,
            x_t=rates[action] / max_rate if max_rate > 0 else 0.0,
            x_e=1.0 - energy / max_energy if max_energy > 0 else 0.0,
            x_ch=1.0 if action.modality is not obs.current_modality else 0.0,
        )
        u = total_utility(UtilityBreakdown(
            modality=modality_utility(obs.f_r, scores, weights),
            screen=screen_utility(action, obs.p_int, weights.theta_s, weights.alpha),
            localization=localization_utility(action, p_m, weights.theta_l, weights.beta),
            energy=energy_utility(energy, e_max_j),
        ), weights, obs.f_r)
        keeps = 1 if action.modality is obs.current_modality else 0
        optical = 1 if action.modality is Modality.OWC else 0
        return (u, keeps, _MODE_RANK[action.mode], optical)

    return max(action_set, key=rank)


def etno_select(f_r: float, sleep_threshold: float, conservation_threshold: float,
                current_modality: Modality, best_snr_modality: Modality,
                owc_only: bool = False) -> Action:
    """Threshold baseline: sleep below the sleep threshold, conservation on
    the radio link between the thresholds, full performance on the best-SNR
    modality above. The OWC-only variant never leaves the optical link."""
    if sleep_threshold >= conservation_threshold:
        raise ValueError("sleep threshold must be below the conservation threshold")
    if f_r < sleep_threshold:
        return Action(Mode.SLEEP, current_modality)
    if f_r < conservation_threshold:
        modality = Modality.OWC if owc_only else Modality.BLE
        return Action(Mode.CONSERVATION, modality)
    modality = Modality.OWC if owc_only else best_snr_modality
    return Action(Mode.PERFORMANCE, modality)
