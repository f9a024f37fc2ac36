"""Self-check commands: GFSK reference comparison and calibration replay."""

import csv
import time

import pytest

from hybridsim.validation import (BER_TOLERANCE_DB, CalibrationError,
                                  check_calibration, default_ber_fixture_path,
                                  default_calibration_path, load_calibration,
                                  validate_ber)


def _shifted_fixture(tmp_path, shift_db):
    """The shipped BER reference with every SNR moved by `shift_db`: the
    model then sits `shift_db` away from each point."""
    with default_ber_fixture_path().open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    path = tmp_path / f"ber_{shift_db}.csv"
    path.write_text("snr_db,ber\n" + "".join(
        f"{float(snr) + shift_db!r},{ber}\n" for snr, ber in rows))
    return path


class TestValidateBer:
    def test_shipped_fixture_passes_with_tiny_deviation(self):
        report = validate_ber()
        assert report.deviations_db, "fixture produced no comparable points"
        assert report.max_deviation_db < 0.01
        assert report.passed

    def test_perturbed_model_deviation_grows_monotonically(self, tmp_path):
        deviations = [validate_ber(_shifted_fixture(tmp_path, s)).max_deviation_db
                      for s in (0.1, 0.2, 0.4)]
        assert deviations[0] < deviations[1] < deviations[2]
        assert deviations[0] == pytest.approx(0.1, abs=0.01)

    def test_large_shift_fails_the_tolerance(self, tmp_path):
        assert not validate_ber(_shifted_fixture(tmp_path, 2 * BER_TOLERANCE_DB)).passed

    def test_empty_snr_range_reports_success(self, tmp_path):
        # Every point moves out of the compared SNR window.
        report = validate_ber(_shifted_fixture(tmp_path, 40.0))
        assert report.deviations_db == ()
        assert report.passed

    def test_missing_fixture_errors(self, tmp_path):
        with pytest.raises(CalibrationError, match="nope.csv"):
            validate_ber(tmp_path / "nope.csv")

    def test_runs_under_a_second(self):
        t0 = time.perf_counter()
        validate_ber()
        assert time.perf_counter() - t0 < 1.0


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
        table = load_calibration(default_calibration_path())
        current_ma, duration_ms = table["ble", "uplink_tx", "normal"]
        table["ble", "uplink_tx", "normal"] = (current_ma * 2.0, duration_ms)
        report = check_calibration(table)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["ble_uplink_normal"]
        assert not report.passed

    def test_frame_airtime_comes_from_the_table(self):
        # Six 68 ms chunks with a 100 ms decode gap between each pair.
        assert check_calibration().frame_airtime_s == pytest.approx(0.908, abs=1e-12)
        table = load_calibration(default_calibration_path())
        table["node", "vlc_chunk_gap", "normal"] = (5.58, 80.0)
        assert check_calibration(table).frame_airtime_s == pytest.approx(0.808, abs=1e-12)

    def test_runs_under_a_second(self):
        t0 = time.perf_counter()
        check_calibration()
        assert time.perf_counter() - t0 < 1.0
