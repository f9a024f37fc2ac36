"""Energy buffer semantics, phase energies, action-energy prediction, and the
measured-current table that `check-calibration` replays.

The headline per-operation energies are asserted against the measured values
the table encodes (uplink burst 94/61 uJ, display refresh 2.13 mJ).
"""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from hybridsim.actions import Mode, Modality
from hybridsim.energy import (EnergyBuffer, energy_between, harvest_lumps, phase_energy,
                              predict_action_energy)
from hybridsim.kernel import EventKind
from hybridsim.runner import build_link_plans
from hybridsim.scenario import Scenario, ScenarioError
from hybridsim.validation import (CalibrationError, default_calibration_path,
                                  load_calibration)

HEADER = "device,state,profile,current_mA,duration_ms\n"


@pytest.fixture(scope="module")
def table():
    return load_calibration(default_calibration_path())


class TestEnergyBuffer:
    def test_simple_consume(self):
        buf = EnergyBuffer(capacity_j=8.0)
        assert buf.consume(1.0) is None
        assert buf.remaining_j == pytest.approx(7.0)

    def test_overdraw_clamps_and_signals(self):
        buf = EnergyBuffer(capacity_j=8.0, initial_j=0.5)
        assert buf.consume(2.0) is EventKind.BATTERY_LOW
        assert buf.remaining_j == 0.0
        assert buf.consumed_j == pytest.approx(0.5)  # only what was stored

    def test_low_edge_fires_exactly_once(self):
        buf = EnergyBuffer(capacity_j=8.0, critical_fraction=0.2)
        assert buf.consume(6.0) is None          # 2.0 J left, above 1.6
        assert buf.consume(0.5) is EventKind.BATTERY_LOW
        assert buf.consume(0.1) is None          # already below, no repeat

    def test_charged_edge_fires_once_on_upward_crossing(self):
        buf = EnergyBuffer(capacity_j=8.0, initial_j=1.0, critical_fraction=0.2)
        _, edge = buf.harvest(0.5)
        assert edge is None                       # 1.5 J still below 1.6
        _, edge = buf.harvest(0.2)
        assert edge is EventKind.BATTERY_CHARGED
        _, edge = buf.harvest(0.2)
        assert edge is None

    def test_harvest_clamps_at_capacity(self):
        buf = EnergyBuffer(capacity_j=8.0)
        added, _ = buf.harvest(3.0)
        assert added == 0.0
        assert buf.harvested_j == 0.0

    def test_harvest_that_fills_the_buffer_stops_at_capacity(self):
        # Adding `capacity - before` back to this `before` rounds one ulp
        # above the 5.2 J capacity.
        before = 1.1606180572826879
        assert before + (5.2 - before) > 5.2
        buf = EnergyBuffer(capacity_j=5.2, initial_j=before)
        added, _ = buf.harvest(10.0)
        assert added == 5.2 - before
        assert buf.remaining_j == 5.2

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=0, max_value=3)), max_size=40))
    def test_ledger_and_bounds_invariant(self, steps):
        buf = EnergyBuffer(capacity_j=8.0, initial_j=4.0)
        for is_harvest, amount in steps:
            if is_harvest:
                buf.harvest(amount)
            else:
                buf.consume(amount)
            assert 0.0 <= buf.remaining_j <= buf.capacity_j
            ledger = buf.initial_j + buf.harvested_j - buf.consumed_j
            assert buf.remaining_j == pytest.approx(ledger, rel=1e-12, abs=1e-12)


class TestHarvest:
    def test_constant_profile_integral(self):
        buf = EnergyBuffer(capacity_j=8.0, initial_j=0.0)
        added, _ = buf.harvest(energy_between(((0.0, 0.010),), 0.0, 100.0))
        assert added == pytest.approx(1.0)

    def test_full_buffer_adds_nothing(self):
        buf = EnergyBuffer(capacity_j=8.0)
        added, _ = buf.harvest(energy_between(((0.0, 0.010),), 0.0, 10.0))
        assert added == 0.0

    def test_piecewise_segments(self):
        profile = ((0.0, 0.010), (50.0, 0.002))
        assert energy_between(profile, 0.0, 100.0) == pytest.approx(0.5 + 0.1)
        # A segment applies from its start on.
        assert energy_between(profile, 49.0, 50.0) == 0.010
        assert energy_between(profile, 50.0, 51.0) == 0.002

    def test_pieces_add_left_to_right(self):
        # 0.0001 + 0.0006 + 0.0009 in that order, the same double on every
        # Python version; a compensated `sum()` (3.12 on) gives 0.0016.
        profile = ((0.0, 0.001), (0.1, 0.001), (0.7, 0.003))
        assert energy_between(profile, 0.0, 1.0) == 0.0016000000000000003

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.25]) | st.floats(-5.0, 5.0),
                              st.sampled_from([0.0, 0.001, 0.003]) | st.floats(0.0, 0.05)),
                    min_size=1, max_size=6),
           st.floats(-6.0, 6.0), st.booleans(), st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 4.0))
    def test_matches_the_edge_list_reference(self, segments, t0, on_a_start, width):
        # The reference splits [t0, t1] at every segment start inside it and
        # reads each piece's power by a scan. Both add the pieces left to
        # right, so they must give the same double.
        segments = sorted(segments, key=lambda segment: segment[0])
        if on_a_start:
            t0 = segments[len(segments) // 2][0]
        t1 = t0 + width

        def power_at(t):
            return ([p for s, p in segments if s <= t] or [0.0])[-1]

        expected = 0.0
        if t1 > t0:
            edges = [t0] + [s for s, _ in segments if t0 < s < t1] + [t1]
            for a, b in zip(edges, edges[1:]):
                expected += power_at(a) * (b - a)
        assert energy_between(tuple(segments), t0, t1) == expected

    def test_lumps_are_each_second_s_integral_bit_for_bit(self):
        # A run's lumps repeat each segment's whole-second lump and integrate
        # only the seconds a start cuts, so each must be the double that
        # `energy_between` gives for its second. The fixed profiles cover
        # fractional starts, starts on a whole second, several starts in one
        # second, a first start before and after 0 s, zero power, a single
        # segment, a run shorter than its first segment and an empty run.
        rng = random.Random(43)
        profiles = [(((0.0, 0.01),), 20), (((30.0, 0.01),), 10), (((0.25, 0.02),), 0),
                    (((2.5, 0.01), (7.0, 0.003), (7.25, 0.0), (7.75, 0.02)), 15),
                    (((-1.5, 0.004), (3.0, 0.0), (3.3, 0.007)), 8)]
        for _ in range(60):
            starts = sorted(rng.choice((float(rng.randint(-2, 20)), rng.uniform(-2.0, 25.0)))
                            for _ in range(rng.randint(1, 5)))
            profiles.append((tuple((start, rng.choice((0.0, rng.uniform(0.0, 0.05))))
                                   for start in starts), rng.randint(0, 30)))
        covered = Counter()
        for segments, run_s in profiles:
            assert [lump.hex() for lump in harvest_lumps(segments, run_s)] == [
                energy_between(segments, t - 1.0, float(t)).hex()
                for t in range(1, run_s + 1)], (segments, run_s)
            starts = [start for start, _ in segments]
            covered["fractional"] += any(0 < start < run_s and start % 1 for start in starts)
            covered["whole"] += any(0 < start < run_s and not start % 1 for start in starts)
            covered["late first"] += 0 < starts[0] < run_s
            covered["zero power"] += any(power == 0.0 for _, power in segments)
            covered["one segment"] += len(segments) == 1
            covered["short run"] += run_s < starts[0]
        assert all(covered[case] for case in ("fractional", "whole", "late first", "zero power",
                                              "one segment", "short run")), covered

    def test_unsorted_segments_rejected(self):
        with pytest.raises(ScenarioError, match=r"\[energy\] harvest_profile"):
            Scenario(harvest_profile=((10.0, 0.01), (0.0, 0.02)))

    def test_non_finite_segments_rejected(self):
        with pytest.raises(ScenarioError, match=r"\[energy\] harvest_profile"):
            Scenario(harvest_profile=((0.0, float("nan")),))


class TestPhaseEnergy:
    def test_ble_uplink_reference(self):
        # 9.10 mA over 3.13 ms at 3.3 V
        assert phase_energy(9.10, 3.13, 3.3) == pytest.approx(94e-6, rel=0.05)

    def test_ble_uplink_low_power_reference(self):
        assert phase_energy(5.91, 3.13, 3.3) == pytest.approx(61e-6, rel=0.05)

    def test_eink_optimized_reference(self):
        assert phase_energy(1.5, 435, 3.3) == pytest.approx(2.13e-3, rel=0.02)


class TestCalibrationTable:
    def test_shipped_fixture_spot_values(self, table):
        assert table["ble", "adv_event_0dbm", "normal"][0] == 9.65
        assert table["node", "deep_sleep_no_vlc_rx", "very_low_power"][0] == 0.0047
        assert table["ble", "conn_event_0dbm", "normal"][0] == 7.31
        assert table["ble", "conn_event_8dbm", "normal"][0] == 8.58

    def test_profile_token_normalization(self, table):
        # The file spells the profile `low-power`; keys are normalised once,
        # at load, and looked up as they are.
        assert table["ble", "uplink_tx", "low_power"] == (5.91, 3.13)
        assert ("ble", "uplink_tx", "low-power") not in table

    def test_unknown_state_raises(self, table):
        with pytest.raises(KeyError):
            table["ble", "no_such_state", "normal"]

    def test_missing_required_states_listed(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(HEADER)
        with pytest.raises(CalibrationError) as err:
            load_calibration(path)
        assert "uplink_tx" in str(err.value)
        assert "vlc_tx_chunk" in str(err.value)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(HEADER + "ble,uplink_tx,normal,not_a_number,3.13\n")
        with pytest.raises(CalibrationError) as err:
            load_calibration(path)
        assert ":2:" in str(err.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CalibrationError):
            load_calibration(path)

    def test_negative_current_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(HEADER + "x,y,normal,-1.0,\n")
        with pytest.raises(CalibrationError) as err:
            load_calibration(path)
        assert ":2:" in str(err.value)


class TestDeviceCurrent:
    def test_table_lookup(self, table):
        assert table["ble", "conn_event_0dbm", "normal"] == (7.31, 2.14)
        assert table["node", "cycle_idle_sens_11.25ms_8dbm", "normal"] == (5.95, None)

    def test_unknown_state_errors(self, table):
        with pytest.raises(KeyError):
            table["ble", "bogus", "normal"]


def _predicted(scenario, row, horizon_s):
    """`predict_action_energy` over the columns of the action row `row`."""
    return predict_action_energy(scenario, row.mode, row.airtime_ns, row.interval_ns,
                                 row.tx_current_ma, horizon_s)


class TestActionEnergyPrediction:
    @pytest.fixture()
    def cfg(self):
        scenario = Scenario()
        return scenario, build_link_plans(scenario)

    def test_sleep_is_single_phase(self, cfg):
        scenario, plans = cfg
        energy = _predicted(scenario, plans[Mode.SLEEP, Modality.OWC], 10.0)
        assert energy == pytest.approx(0.344e-3 * 3.3 * 10.0, rel=1e-12)

    def test_performance_costs_more_than_conservation(self, cfg):
        scenario, plans = cfg
        perf = _predicted(scenario, plans[Mode.PERFORMANCE, Modality.BLE], 10.0)
        cons = _predicted(scenario, plans[Mode.CONSERVATION, Modality.BLE], 10.0)
        assert perf > cons

    def test_optical_uplink_costs_more_than_radio(self, cfg):
        scenario, plans = cfg
        owc = _predicted(scenario, plans[Mode.PERFORMANCE, Modality.OWC], 10.0)
        ble = _predicted(scenario, plans[Mode.PERFORMANCE, Modality.BLE], 10.0)
        assert owc > ble

    def test_each_row_holds_its_prediction_over_one_policy_period(self, cfg):
        scenario, plans = cfg
        for row in plans.values():
            assert row.predicted_j == _predicted(scenario, row, scenario.weights.period_s)
