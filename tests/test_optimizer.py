"""Utility equations against their closed-form substitutions, the selection
policies, and the mobility predictor."""

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from hybridsim.actions import ActionPlan, Mode, Modality
from hybridsim.optimizer import (EunoTable, UtilityWeights, _matched_reward,
                                 energy_utility, etno_select, euno_select, ewma_update,
                                 screen_utility)
from hybridsim.scenario import Scenario, ScenarioError
from conftest import action_rows, action_set

W = UtilityWeights()
P_OWC = (Mode.PERFORMANCE, Modality.OWC)
P_BLE = (Mode.PERFORMANCE, Modality.BLE)
C_OWC = (Mode.CONSERVATION, Modality.OWC)
C_BLE = (Mode.CONSERVATION, Modality.BLE)
SLEEP = (Mode.SLEEP, Modality.OWC)
# A table with a row for each of the six actions.
KEYS = [(mode, modality) for mode in Mode for modality in Modality]
PLANS = action_rows(dict.fromkeys(KEYS, 0.0), dict.fromkeys(KEYS, 0.0))


def key(row: ActionPlan) -> tuple[Mode, Modality]:
    """The `(mode, modality)` key of a row of the run's table."""
    return row.mode, row.modality


# The paper's utility terms composed one by one: the reference oracle that
# `euno_select`'s per-run table is checked against here and in criterion 6.

def energy_weight(f_r: float, f_c: float) -> float:
    """Dynamic weight of the energy utility: 1 at the critical level, 0 when
    full, clamped to [0, 1] outside that span."""
    value = 1.0 - (f_r - f_c) / (1.0 - f_c)
    return min(1.0, max(0.0, value))


def mobility_probability(baseline: float, sample: float, k: float,
                         c: float) -> float:
    """Sigmoid of the deviation between the smoothed and instantaneous SNR;
    0, its limit, where the exponential overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-k * (abs(baseline - sample) - c)))
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class ModalityScores:
    x_p: float
    x_c: float
    x_t: float
    x_e: float
    x_ch: float


def modality_utility(f_r: float, scores: ModalityScores,
                     weights: UtilityWeights) -> float:
    return (f_r * (weights.p_p * scores.x_p + weights.p_t * scores.x_t)
            + (1.0 - f_r) * (weights.p_c * scores.x_c + weights.p_e * scores.x_e)
            - weights.p_ch * scores.x_ch)


def localization_utility(row: ActionPlan, p_m: float, theta_l: float,
                         beta: float) -> float:
    """Reward actions whose localization policy matches the mobility forecast."""
    return _matched_reward(row, p_m > theta_l, beta)


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


class TestEnergyWeight:
    def test_full_buffer(self):
        assert energy_weight(1.0, 0.2) == 0.0

    def test_critical_level(self):
        assert energy_weight(0.2, 0.2) == 1.0

    def test_direct_substitution(self):
        assert energy_weight(0.6, 0.2) == pytest.approx(0.5)

    def test_clamped_below_critical(self):
        assert energy_weight(0.05, 0.2) == 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_non_increasing_in_f_r(self, a, b):
        lo, hi = sorted((a, b))
        assert energy_weight(lo, 0.2) >= energy_weight(hi, 0.2)


class TestModalityUtility:
    def test_upper_bound_reference(self):
        scores = ModalityScores(x_p=1, x_c=0, x_t=1, x_e=0, x_ch=0)
        assert modality_utility(1.0, scores, W) == pytest.approx(4.0)

    def test_conservation_substitution(self):
        scores = ModalityScores(x_p=0, x_c=1, x_t=0, x_e=1, x_ch=1)
        assert modality_utility(0.0, scores, W) == pytest.approx(1.7)

    def test_switch_penalty_isolation(self):
        kept = ModalityScores(x_p=1, x_c=0, x_t=0.5, x_e=0.2, x_ch=0)
        switched = ModalityScores(x_p=1, x_c=0, x_t=0.5, x_e=0.2, x_ch=1)
        diff = modality_utility(0.7, kept, W) - modality_utility(0.7, switched, W)
        assert diff == pytest.approx(W.p_ch)


class TestScreenAndLocalization:
    def test_screen_branches(self):
        assert screen_utility(PLANS[P_OWC], 0.9, 0.5, 1.0) == 1.0
        assert screen_utility(PLANS[C_OWC], 0.1, 0.5, 1.0) == 1.0
        assert screen_utility(PLANS[SLEEP], 0.9, 0.5, 1.0) == 0.0
        assert screen_utility(PLANS[C_OWC], 0.9, 0.5, 1.0) == 0.0

    def test_localization_branches(self):
        assert localization_utility(PLANS[P_OWC], 0.8, 0.5, 1.0) == 1.0
        assert localization_utility(PLANS[C_OWC], 0.8, 0.5, 1.0) == 0.0
        assert localization_utility(PLANS[C_OWC], 0.2, 0.5, 1.0) == 1.0

    def test_threshold_is_strict(self):
        # probability exactly at the threshold does not demand the feature
        assert localization_utility(PLANS[P_OWC], 0.5, 0.5, 1.0) == 0.0
        assert localization_utility(PLANS[C_OWC], 0.5, 0.5, 1.0) == 1.0


class TestPredictor:
    def test_lambda_one_tracks_sample(self):
        assert ewma_update(5.0, 20.0, 1.0) == 20.0

    def test_constant_signal_fixed_point(self):
        baseline = 7.0
        for _ in range(50):
            baseline = ewma_update(baseline, 7.0, 0.2)
        assert baseline == pytest.approx(7.0)

    def test_substitution(self):
        assert ewma_update(10.0, 20.0, 0.5) == 15.0

    def test_sigmoid_midpoint(self):
        assert mobility_probability(10.0, 13.0, 1.5, 3.0) == 0.5

    def test_stable_channel_probability_near_zero(self):
        assert mobility_probability(10.0, 10.0, 3.0, 6.0) < 1e-6

    def test_sigmoid_overflow_returns_the_limit(self):
        # exp(1.5e6) and exp(3e6) overflow; the sigmoid tends to 0 there.
        assert mobility_probability(10.0, 10.0, 1.5, 1e6) == 0.0
        assert mobility_probability(10.0, 10.0, 1e6, 3.0) == 0.0
        assert mobility_probability(10.0, 20.0, 1e6, 3.0) == 1.0

    def test_sigmoid_substitution(self):
        # deviation 5 with k=1, C=3: 1/(1 + e^-2)
        assert mobility_probability(10.0, 15.0, 1.0, 3.0) == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0)))

    @given(st.floats(0, 15), st.floats(0.1, 10))
    def test_probability_open_interval_and_increasing(self, delta, step):
        # domain bounded where float64 can still resolve 1/(1+e^-x) < 1
        p1 = mobility_probability(0.0, delta, 1.5, 3.0)
        p2 = mobility_probability(0.0, delta + step, 1.5, 3.0)
        assert 0.0 < p1 < 1.0
        assert p2 > p1


class TestEnergyUtility:
    def test_bounds(self):
        assert energy_utility(0.0, 8.0) == 1.0
        assert energy_utility(8.0, 8.0) == 0.0

    def test_substitution(self):
        assert energy_utility(2.0, 8.0) == pytest.approx(0.75)

    def test_clamps_above_max(self):
        assert energy_utility(9.0, 8.0) == 0.0


class TestTotalUtility:
    def test_all_zero(self):
        comps = UtilityBreakdown(0.0, 0.0, 0.0, 0.0)
        assert total_utility(comps, W, 0.5) == 0.0

    def test_energy_term_vanishes_at_full_buffer(self):
        lo = total_utility(UtilityBreakdown(1.0, 0.0, 0.0, 0.0), W, 1.0)
        hi = total_utility(UtilityBreakdown(1.0, 0.0, 0.0, 1.0), W, 1.0)
        assert lo == hi

    def test_reference_substitution(self):
        comps = UtilityBreakdown(modality=4.0, screen=1.0, localization=1.0,
                                 energy=0.0)
        assert total_utility(comps, W, 1.0) == pytest.approx(3.73)


class TestEunoSelect:
    def test_sleep_guard_dominates(self, euno_call):
        assert euno_select(*euno_call(f_r=0.1)).mode is Mode.SLEEP

    def test_sleep_guard_property_over_random_observations(self, euno_call):
        rng = random.Random(1234)
        for _ in range(10_000):
            f_r = rng.uniform(0.0, 0.199999)
            current = rng.choice([Modality.OWC, Modality.BLE])
            actions = action_set(current)
            call = euno_call(
                f_r=f_r, current=current,
                energies={a: rng.uniform(0.0, 8.0) for a in actions},
                rates={a: rng.uniform(0.0, 400.0) for a in actions},
                p_int=rng.random(),
                sample=rng.uniform(0, 80), baseline=rng.uniform(0, 80))
            assert euno_select(*call).mode is Mode.SLEEP

    def test_empty_buffer_sleeps_without_a_critical_level(self, euno_call):
        weights = UtilityWeights(f_c=0.0)
        assert euno_select(*euno_call(f_r=0.0, weights=weights)).mode is Mode.SLEEP
        assert euno_select(*euno_call(f_r=1e-9, weights=weights)).mode is not Mode.SLEEP

    def test_abundant_energy_picks_performance_on_best_link(self, euno_call):
        # strong optical SNR, screen demanded, mobility detected
        call = euno_call(f_r=1.0, p_int=0.9,
                         snr={Modality.OWC: 80.0, Modality.BLE: 30.0},
                         sample=80.0, baseline=50.0)
        assert key(euno_select(*call)) == P_OWC

    def test_exact_tie_prefers_current_modality(self, euno_call):
        actions = action_set(Modality.BLE)
        energies = {a: 0.2 for a in actions}
        rates = {(mode, modality): 300.0 if mode is Mode.PERFORMANCE else 60.0
                 for mode, modality in actions}
        rates[Mode.SLEEP, Modality.BLE] = 0.0
        weights = UtilityWeights(p_ch=0.0)  # remove the switch penalty
        call = euno_call(f_r=0.9, current=Modality.BLE, energies=energies,
                         rates=rates, weights=weights)
        # (P, OWC) and (P, BLE) now score identically; the tie keeps BLE.
        assert key(euno_select(*call)) == P_BLE

    def test_ties_pick_the_row_the_tuple_comparison_picks(self):
        # The five rows share two or three sets of terms, so many score equal
        # utilities, and tie keys from a small set make some equal too. The
        # row chosen is the first whose `(utility, tie key)` is the largest.
        rng = random.Random(46)
        levels, tied = (0.0, 0.25, 1.0), 0
        for _ in range(2000):
            terms = [(*(rng.choice(levels) for _ in range(4)),
                      (rng.choice(levels), rng.choice(levels)), rng.choice(levels))
                     for _ in range(rng.randint(2, 3))]
            rows = tuple((*rng.choice(terms),
                          (rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1)), object())
                         for _ in range(5))
            f_r = rng.choice((W.f_c, 0.5, 1.0, rng.uniform(W.f_c, 1.0)))
            baseline, sample = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
            moving = mobility_probability(baseline, sample, W.sigmoid_k,
                                          W.sigmoid_c_db) > W.theta_l
            p_e = energy_weight(f_r, W.f_c)
            keys = [(W.p_m * (f_r * a + (1.0 - f_r) * b - c) + screen + loc[moving]
                     + p_e * energy, tie) for a, b, c, screen, loc, energy, tie, _ in rows]
            best = max(keys)
            table = EunoTable(W, {Modality.OWC: rows})
            assert euno_select(table, f_r, Modality.OWC, baseline, sample) is rows[
                keys.index(best)][-1]
            tied += sum(key[0] == best[0] for key in keys) > 1
        assert tied > 1000  # about three draws in four tie at the top

    def test_sigmoid_overflow_forecasts_no_mobility(self, euno_call):
        # exp(1e6 · 3) overflows: the forecast is 0, the sigmoid's limit, and
        # the row is the one a deviation far below `sigmoid_c_db` gets.
        steep = UtilityWeights(sigmoid_k=1e6)
        assert (key(euno_select(*euno_call(weights=steep, sample=50.0, baseline=50.0)))
                == key(euno_select(*euno_call(sample=50.0, baseline=50.0))))

    def test_scaling_subutilities_preserves_argmax(self):
        rng = random.Random(7)
        for _ in range(200):
            comps = {a: UtilityBreakdown(rng.uniform(-0.1, 4), rng.random(),
                                         rng.random(), rng.random())
                     for a in (P_OWC, P_BLE, C_OWC, C_BLE)}
            f_r = rng.uniform(0.2, 1.0)
            scale = rng.uniform(0.01, 100.0)

            def pick(factor):
                scored = {
                    a: total_utility(UtilityBreakdown(
                        c.modality * factor, c.screen * factor,
                        c.localization * factor, c.energy * factor), W, f_r)
                    for a, c in comps.items()}
                return max(scored, key=lambda a: (scored[a], a[0].value, a[1].value))
            assert pick(1.0) == pick(scale)

    @given(f_r=st.floats(W.f_c, 1.0), current=st.sampled_from(list(Modality)),
           energies=st.lists(st.floats(0.0, 8.0), min_size=5, max_size=5),
           rates=st.lists(st.floats(0.0, 400.0), min_size=5, max_size=5),
           successes=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                              min_size=5, max_size=5),
           p_int=st.floats(0.0, 1.0), sample=st.floats(0.0, 80.0),
           baseline=st.floats(0.0, 80.0))
    def test_picks_the_argmax_of_total_utility(self, f_r, current, energies, rates,
                                               successes, p_int, sample, baseline):
        actions = action_set(current)
        other = Modality.BLE if current is Modality.OWC else Modality.OWC
        outside = (Mode.SLEEP, other)
        # The dicts also hold the other modality's sleep action, as the
        # runner's do; its values exceed every in-set value, so normalizing
        # over it would change the scores.
        predicted_j = {**dict(zip(actions, energies)), outside: 9.0}
        rates_kbps = {**dict(zip(actions, rates)), outside: 500.0}
        rows = action_rows(predicted_j, rates_kbps, dict(zip(actions, successes)))
        table = EunoTable.build(W, 8.0, p_int, rows)
        p_m = mobility_probability(baseline, sample, W.sigmoid_k, W.sigmoid_c_db)
        # Throughput scores the rate a row delivers over its link.
        delivered = {a: rates_kbps[a] * rows[a].success_prob for a in actions}
        max_rate, max_energy = max(delivered.values()), max(energies)

        def utility(a):
            mode, modality = a
            energy, rate = predicted_j[a], delivered[a]
            scores = ModalityScores(
                x_p=float(mode is Mode.PERFORMANCE),
                x_c=float(mode is Mode.CONSERVATION),
                x_t=rate / max_rate if max_rate > 0 else 0.0,
                x_e=1.0 - energy / max_energy if max_energy > 0 else 0.0,
                x_ch=float(modality is not current))
            return total_utility(UtilityBreakdown(
                modality_utility(f_r, scores, W),
                screen_utility(rows[a], p_int, W.theta_s, W.alpha),
                localization_utility(rows[a], p_m, W.theta_l, W.beta),
                energy_utility(energy, 8.0)), W, f_r)

        rank = {Mode.PERFORMANCE: 2, Mode.CONSERVATION: 1, Mode.SLEEP: 0}
        chosen = euno_select(table, f_r, current, baseline, sample)
        assert key(chosen) in actions
        assert utility(key(chosen)) == max(utility(a) for a in actions)
        # The same row as the reference composition, ties broken by keeping
        # the modality, then the higher mode, then the optical link.
        assert chosen is rows[max(actions, key=lambda a: (
            utility(a), a[1] is current, rank[a[0]], a[1] is Modality.OWC))]

    def test_table_rejects_a_missing_action(self):
        predicted_j = {a: 0.1 for a in action_set(Modality.OWC)}
        rates_kbps = dict.fromkeys(predicted_j, 60.0)
        with pytest.raises(KeyError):  # lacks (sleep, ble)
            EunoTable.build(W, 8.0, 0.5, action_rows(predicted_j, rates_kbps))


class TestEtnoSelect:
    def test_above_both_thresholds(self):
        row = etno_select(PLANS, 0.5, 0.2, 0.4, Modality.BLE, Modality.OWC)
        assert row is PLANS[P_OWC]  # performance on the best-SNR link

    def test_between_thresholds_conserves_on_radio(self):
        row = etno_select(PLANS, 0.3, 0.2, 0.4, Modality.OWC, Modality.OWC)
        assert row is PLANS[C_BLE]

    def test_below_sleep_threshold(self):
        row = etno_select(PLANS, 0.15, 0.2, 0.4, Modality.BLE, Modality.OWC)
        assert row is PLANS[Mode.SLEEP, Modality.BLE]  # keeps the current modality

    def test_empty_buffer_sleeps_at_zero_threshold(self):
        assert etno_select(PLANS, 0.0, 0.0, 0.4, Modality.OWC,
                           Modality.OWC) is PLANS[Mode.SLEEP, Modality.OWC]
        assert etno_select(PLANS, 1e-9, 0.0, 0.4, Modality.OWC, Modality.OWC) is PLANS[C_BLE]

    def test_owc_only_variant_pins_modality(self):
        assert etno_select(PLANS, 0.5, 0.2, 0.4, Modality.BLE, Modality.BLE,
                           owc_only=True) is PLANS[P_OWC]
        assert etno_select(PLANS, 0.3, 0.2, 0.4, Modality.OWC, Modality.OWC,
                           owc_only=True) is PLANS[C_OWC]


class TestWeightValidation:
    def test_static_weights_must_sum_to_one(self):
        with pytest.raises(ScenarioError) as err:
            Scenario(weights=UtilityWeights(p_m=0.5, p_s=0.3, p_l=0.3))
        assert "[weights] p_m" in str(err.value) and "sum to 1" in str(err.value)

    def test_lambda_and_slope_domains(self):
        for key, value in (("ewma_lambda", 0.0), ("sigmoid_k", 0.0), ("f_c", 1.0)):
            with pytest.raises(ScenarioError, match=rf"\[weights\] {key} "):
                Scenario(weights=UtilityWeights(**{key: value}))


def test_action_set_enumeration_is_fixed_size():
    # EUNO scores the four active rows and exactly one sleep row, which
    # carries the current modality, each the table's own row.
    table = EunoTable.build(W, 8.0, 0.5, PLANS)
    for current in Modality:
        rows = [scored[-1] for scored in table.rows[current]]
        assert len(rows) == 5
        assert all(row is PLANS[key(row)] for row in rows)
        assert [key(row) for row in rows if row.mode is not Mode.SLEEP] == [
            P_OWC, P_BLE, C_OWC, C_BLE]
        assert [key(row) for row in rows if row.mode is Mode.SLEEP] == [
            (Mode.SLEEP, current)]
