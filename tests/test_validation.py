"""Self-check commands: GFSK reference comparison and calibration replay."""

import csv
import time

import pytest

from hybridsim.energy import StateCurrentTable, default_calibration_path
from hybridsim.validation import (BER_TOLERANCE_DB, check_calibration,
                                  validate_ber)
from hybridsim.vlcframe import CHUNK_AIRTIME_MS, CHUNKS_PER_FRAME, INTER_CHUNK_DELAY_MS


class TestValidateBer:
    def test_shipped_fixture_passes_with_tiny_deviation(self):
        report = validate_ber()
        assert report.rows, "fixture produced no comparable points"
        assert report.max_deviation_db < 0.01
        assert report.passed

    def test_perturbed_model_deviation_grows_monotonically(self):
        deviations = [validate_ber(model_shift_db=s).max_deviation_db
                      for s in (0.1, 0.2, 0.4)]
        assert deviations[0] < deviations[1] < deviations[2]
        assert deviations[0] == pytest.approx(0.1, abs=0.01)

    def test_large_shift_fails_the_tolerance(self):
        assert not validate_ber(model_shift_db=2 * BER_TOLERANCE_DB).passed

    def test_empty_snr_range_reports_success(self):
        report = validate_ber(snr_range_db=(40.0, 41.0))
        assert report.rows == ()
        assert report.passed

    def test_missing_fixture_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            validate_ber(tmp_path / "nope.csv")

    def test_runs_under_a_second(self):
        t0 = time.perf_counter()
        validate_ber()
        assert time.perf_counter() - t0 < 1.0


def _copy_table(mutate=None):
    """The shipped table, rebuilt from its CSV with `mutate` applied to each
    row's current."""
    out = StateCurrentTable()
    with default_calibration_path().open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = row["device"], row["state"], row["profile"]
            current = float(row["current_mA"])
            if mutate is not None:
                current = mutate(*key, current)
            duration = row["duration_ms"].strip()
            out.add(*key, current, float(duration) if duration else None)
    return out


class TestCheckCalibration:
    def test_shipped_table_passes_all_rows(self):
        report = check_calibration()
        assert report.passed
        for check in report.checks:
            assert check.passed, check.name
        assert report.airtime_ok

    def test_headline_values_are_tight(self):
        report = check_calibration()
        by_name = {c.name: c for c in report.checks}
        assert by_name["ble_uplink_normal"].computed_j == pytest.approx(94e-6, rel=0.01)
        assert by_name["ble_uplink_low_power"].computed_j == pytest.approx(61e-6, rel=0.01)
        assert by_name["vlc_uplink_normal"].computed_j == pytest.approx(21.5e-3, rel=0.01)
        assert by_name["vlc_uplink_low_power"].computed_j == pytest.approx(15e-3, rel=0.02)
        assert by_name["eink_optimized"].computed_j == pytest.approx(2.13e-3, rel=0.02)
        assert by_name["eink_original"].computed_j == pytest.approx(12.39e-3, rel=0.05)

    def test_corrupted_entry_produces_named_failure(self):
        def mutate(device, state, profile, current):
            if (device, state, profile) == ("ble", "uplink_tx", "normal"):
                return current * 2.0
            return current
        report = check_calibration(_copy_table(mutate))
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["ble_uplink_normal"]
        assert not report.passed

    def test_frame_airtime_matches_the_codec_pacing(self):
        frame_ms = (CHUNKS_PER_FRAME * CHUNK_AIRTIME_MS
                    + (CHUNKS_PER_FRAME - 1) * INTER_CHUNK_DELAY_MS)
        assert check_calibration().frame_airtime_s == pytest.approx(frame_ms / 1e3)

    def test_runs_under_a_second(self):
        t0 = time.perf_counter()
        check_calibration()
        assert time.perf_counter() - t0 < 1.0
