"""Self-checks against shipped reference data.

validate_ber compares the GFSK error-rate curve against an independently
generated reference table (horizontal deviation in dB); check_calibration
recomputes headline per-operation energies from the measured-current table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .channel import gfsk_ber
from .energy import (StateCurrentTable, load_calibration, phase_energy,
                     vlc_uplink_energy, default_calibration_path)
from .vlcframe import CHUNKS_PER_FRAME

BER_FIXTURE_NAME = "gfsk_ber_reference.csv"
CALIBRATION_TOLERANCE = 0.05
BER_TOLERANCE_DB = 0.5


def default_ber_fixture_path() -> Path:
    return Path(__file__).parent / "data" / BER_FIXTURE_NAME


@dataclass(frozen=True)
class BerDeviation:
    snr_db: float
    ber_ref: float
    model_snr_db: float

    @property
    def deviation_db(self) -> float:
        return abs(self.model_snr_db - self.snr_db)


@dataclass(frozen=True)
class BerReport:
    rows: tuple[BerDeviation, ...]
    tolerance_db: float = BER_TOLERANCE_DB

    @property
    def max_deviation_db(self) -> float:
        if not self.rows:
            return 0.0
        return max(r.deviation_db for r in self.rows)

    @property
    def passed(self) -> bool:
        return self.max_deviation_db <= self.tolerance_db


def _invert_ber(ber_target: float, delta_shift: float = 0.0,
                lo: float = -40.0, hi: float = 60.0) -> float:
    """SNR in dB at which the (optionally shifted) model reaches ber_target;
    bisection over the monotone non-increasing curve."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gfsk_ber(mid + delta_shift, "1M") > ber_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def validate_ber(fixture_path: str | Path | None = None,
                 snr_range_db: tuple[float, float] = (0.0, 18.0),
                 model_shift_db: float = 0.0) -> BerReport:
    """Horizontal (dB) deviation of the model curve from the reference table
    over the SNR window, restricted to error rates in [1e-6, 0.5].

    `model_shift_db` perturbs the model horizontally; useful to probe the
    sensitivity of the check itself.
    """
    path = Path(fixture_path) if fixture_path else default_ber_fixture_path()
    if not path.exists():
        raise FileNotFoundError(f"reference fixture missing: {path}")
    rows = []
    lo, hi = snr_range_db
    with path.open(newline="") as fh:
        for record in csv.DictReader(fh):
            snr = float(record["snr_db"])
            ber = float(record["ber"])
            if not lo <= snr <= hi or not 1e-6 <= ber <= 0.5:
                continue
            model_snr = _invert_ber(ber, delta_shift=model_shift_db)
            rows.append(BerDeviation(snr_db=snr, ber_ref=ber, model_snr_db=model_snr))
    return BerReport(rows=tuple(rows))


@dataclass(frozen=True)
class CalibrationCheck:
    name: str
    computed_j: float
    expected_j: float

    @property
    def relative_error(self) -> float:
        return abs(self.computed_j - self.expected_j) / self.expected_j

    @property
    def passed(self) -> bool:
        return self.relative_error <= CALIBRATION_TOLERANCE


@dataclass(frozen=True)
class CalibrationReport:
    checks: tuple[CalibrationCheck, ...]
    frame_airtime_s: float
    expected_airtime_s: float = 0.91

    @property
    def airtime_ok(self) -> bool:
        return (abs(self.frame_airtime_s - self.expected_airtime_s)
                / self.expected_airtime_s <= CALIBRATION_TOLERANCE)

    @property
    def passed(self) -> bool:
        return self.airtime_ok and all(c.passed for c in self.checks)


# Headline per-operation energies the shipped table must reproduce.
HEADLINE_ENERGIES = {
    "ble_uplink_normal": 94e-6,
    "ble_uplink_low_power": 61e-6,
    "vlc_uplink_normal": 21.5e-3,
    "vlc_uplink_low_power": 15e-3,
    "eink_optimized": 2.13e-3,
    "eink_original": 12.39e-3,
}


def check_calibration(table: StateCurrentTable | None = None,
                      voltage: float = 3.3) -> CalibrationReport:
    if table is None:
        table = load_calibration(default_calibration_path())

    def phase(device: str, state: str, profile: str) -> float:
        entry = table.lookup(device, state, profile)
        if entry.duration_ms is None:
            raise ValueError(f"state {device}/{state} has no duration")
        return phase_energy(entry.current_ma, entry.duration_ms, voltage)

    checks = (
        CalibrationCheck("ble_uplink_normal", phase("ble", "uplink_tx", "normal"),
                         HEADLINE_ENERGIES["ble_uplink_normal"]),
        CalibrationCheck("ble_uplink_low_power", phase("ble", "uplink_tx", "low_power"),
                         HEADLINE_ENERGIES["ble_uplink_low_power"]),
        CalibrationCheck("vlc_uplink_normal", vlc_uplink_energy(table, "normal"),
                         HEADLINE_ENERGIES["vlc_uplink_normal"]),
        CalibrationCheck("vlc_uplink_low_power", vlc_uplink_energy(table, "low_power"),
                         HEADLINE_ENERGIES["vlc_uplink_low_power"]),
        CalibrationCheck("eink_optimized", phase("eink", "refresh_optimized", "normal"),
                         HEADLINE_ENERGIES["eink_optimized"]),
        CalibrationCheck("eink_original", phase("eink", "refresh_original", "normal"),
                         HEADLINE_ENERGIES["eink_original"]),
    )
    chunk = table.lookup("node", "vlc_tx_chunk", "normal")
    gap = table.lookup("node", "vlc_chunk_gap", "normal")
    airtime_s = (CHUNKS_PER_FRAME * (chunk.duration_ms or 0)
                 + (CHUNKS_PER_FRAME - 1) * (gap.duration_ms or 0)) / 1e3
    return CalibrationReport(checks=checks, frame_airtime_s=airtime_s)
