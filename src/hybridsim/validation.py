"""Self-checks against shipped reference data.

validate_ber compares the GFSK error-rate curve against an independently
generated reference table (horizontal deviation in dB); check_calibration
loads the measured-current table and recomputes from it the headline
per-operation energies and the optical frame airtime.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import gfsk_ber
from .energy import phase_energy
from .vlcframe import CHUNKS_PER_FRAME

CALIBRATION_TOLERANCE = 0.05
BER_TOLERANCE_DB = 0.5
BER_SNR_WINDOW_DB = (0.0, 18.0)
SUPPLY_VOLTAGE = 3.3
EXPECTED_FRAME_AIRTIME_S = 0.91

# (device, state, profile) -> (current_mA, duration_ms or None for a
# residency state); tokens lower-cased with `-` read as `_` at load.
CalibrationTable = dict[tuple[str, str, str], tuple[float, float | None]]

# The rows check_calibration reads; each must carry a duration.
REQUIRED_ROWS = (
    ("ble", "uplink_tx", "normal"), ("ble", "uplink_tx", "low_power"),
    ("node", "vlc_tx_chunk", "normal"), ("node", "vlc_tx_chunk", "low_power"),
    ("node", "vlc_chunk_gap", "normal"), ("node", "vlc_chunk_gap", "low_power"),
    ("eink", "refresh_original", "normal"), ("eink", "refresh_optimized", "normal"),
)


class CalibrationError(ValueError):
    pass


def default_calibration_path() -> Path:
    return Path(__file__).parent / "data" / "calibration.csv"


def default_ber_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "gfsk_ber_reference.csv"


def _read_csv(path: Path, header: tuple[str, ...], parse) -> list:
    """`parse(*fields)` of each data row of the UTF-8 CSV file at `path`,
    whose first line must be `header`. Any fault raises CalibrationError
    naming the file, and the line where there is one."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [f.strip() for f in first] != list(header):
                raise CalibrationError(
                    f"{path}: header must be {','.join(header)}, got {first}")
            parsed = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields")
                    parsed.append(parse(*row))
                except ValueError as exc:
                    raise CalibrationError(
                        f"{path}:{reader.line_num}: bad row {row}: {exc}") from exc
            return parsed
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CalibrationError(f"cannot read {path} as UTF-8 CSV: {exc}") from exc


def _calibration_row(device, state, profile, current, duration):
    key = tuple(token.strip().lower().replace("-", "_")
                for token in (device, state, profile))
    entry = (float(current), float(duration) if duration.strip() else None)
    if not all(math.isfinite(v) and v >= 0 for v in entry if v is not None):
        raise ValueError("current and duration must be finite and nonnegative")
    return key, entry


def load_calibration(path: str | Path) -> CalibrationTable:
    """Parse a calibration CSV (device,state,profile,current_mA,duration_ms).

    Durations are blank for residency states. Raises CalibrationError naming
    the file: with a line number on a malformed row or a repeated key, and
    listing every required row that is missing or has no duration."""
    path = Path(path)
    table: CalibrationTable = {}

    def add_row(*fields):
        key, entry = _calibration_row(*fields)
        if key in table:
            raise ValueError(f"repeats the key {'/'.join(key)}")
        table[key] = entry

    _read_csv(path, ("device", "state", "profile", "current_mA", "duration_ms"), add_row)
    missing = [key for key in REQUIRED_ROWS if table.get(key, (0.0, None))[1] is None]
    if missing:
        raise CalibrationError(
            f"{path}: required calibration rows missing or without a duration: "
            + ", ".join("/".join(key) for key in missing))
    return table


@dataclass(frozen=True)
class BerReport:
    # |model SNR - reference SNR| in dB at each compared reference point.
    deviations_db: tuple[float, ...]

    @property
    def max_deviation_db(self) -> float:
        return max(self.deviations_db, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation_db <= BER_TOLERANCE_DB


def _invert_ber(ber_target: float) -> float:
    """SNR in dB at which the model reaches ber_target; bisection over the
    monotone non-increasing curve."""
    lo, hi = -40.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gfsk_ber(mid, "1M") > ber_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def validate_ber(fixture_path: str | Path | None = None) -> BerReport:
    """Horizontal (dB) deviation of the model curve from the reference table
    over BER_SNR_WINDOW_DB, restricted to error rates in [1e-6, 0.5]."""
    path = Path(fixture_path) if fixture_path else default_ber_fixture_path()
    points = _read_csv(path, ("snr_db", "ber"),
                       lambda snr, ber: (float(snr), float(ber)))
    lo, hi = BER_SNR_WINDOW_DB
    return BerReport(tuple(abs(_invert_ber(ber) - snr) for snr, ber in points
                           if lo <= snr <= hi and 1e-6 <= ber <= 0.5))


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

    @property
    def airtime_ok(self) -> bool:
        return (abs(self.frame_airtime_s - EXPECTED_FRAME_AIRTIME_S)
                / EXPECTED_FRAME_AIRTIME_S <= CALIBRATION_TOLERANCE)

    @property
    def passed(self) -> bool:
        return self.airtime_ok and all(c.passed for c in self.checks)


def _frame(chunk: float, gap: float) -> float:
    """One optical frame: its chunk bursts with a decode gap between each
    pair, for either the bursts' energies or their durations."""
    return CHUNKS_PER_FRAME * chunk + (CHUNKS_PER_FRAME - 1) * gap


def check_calibration(table: CalibrationTable | None = None) -> CalibrationReport:
    """Recompute the headline per-operation energies (expected values
    measured on the reference hardware) and the frame airtime."""
    if table is None:
        table = load_calibration(default_calibration_path())

    def energy(device: str, state: str, profile: str = "normal") -> float:
        return phase_energy(*table[device, state, profile], SUPPLY_VOLTAGE)

    def vlc_frame(profile: str) -> float:
        return _frame(energy("node", "vlc_tx_chunk", profile),
                      energy("node", "vlc_chunk_gap", profile))

    checks = (
        CalibrationCheck("ble_uplink_normal", energy("ble", "uplink_tx"), 94e-6),
        CalibrationCheck("ble_uplink_low_power",
                         energy("ble", "uplink_tx", "low_power"), 61e-6),
        CalibrationCheck("vlc_uplink_normal", vlc_frame("normal"), 21.5e-3),
        CalibrationCheck("vlc_uplink_low_power", vlc_frame("low_power"), 15e-3),
        CalibrationCheck("eink_optimized", energy("eink", "refresh_optimized"), 2.13e-3),
        CalibrationCheck("eink_original", energy("eink", "refresh_original"), 12.39e-3),
    )
    airtime_ms = _frame(table["node", "vlc_tx_chunk", "normal"][1],
                        table["node", "vlc_chunk_gap", "normal"][1])
    return CalibrationReport(checks=checks, frame_airtime_s=airtime_ms / 1e3)
