"""Energy storage, harvesting, and consumption models.

The consumption side is calibrated from bench measurements of the target node
(see data/calibration.csv): every device state or operation phase maps to a
measured average current, and energy is integrated piecewise-constant between
phase transitions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .actions import Action, Mode, Modality
from .kernel import NS_PER_MS, EventKind, millis
from .vlcframe import CHUNK_AIRTIME_MS, CHUNKS_PER_FRAME, INTER_CHUNK_DELAY_MS

if TYPE_CHECKING:
    from .node import LinkPlan
    from .scenario import Scenario

DEFAULT_SUPPLY_VOLTAGE = 3.3


class CalibrationError(ValueError):
    pass


class UnknownStateError(KeyError):
    pass


def phase_energy(current_ma: float, duration_ms: float, voltage: float) -> float:
    """Energy in joules of one constant-current phase: E = I * V * t."""
    if current_ma < 0 or duration_ms < 0 or voltage < 0:
        raise ValueError("phase parameters must be nonnegative")
    return current_ma * 1e-3 * voltage * duration_ms * 1e-3


# ---------------------------------------------------------------------------
# Storage and harvesting

class EnergyBuffer:
    """Joule-denominated store with a single critical-fraction threshold.

    Crossing the threshold downward emits BatteryLow, upward BatteryCharged;
    both are edge-triggered with no extra hysteresis band. The remaining
    charge is clamped to [0, capacity] and the consumed/harvested totals count
    only energy actually drawn or stored, so the ledger
    remaining == initial + harvested - consumed holds exactly.
    """

    def __init__(self, capacity_j: float, initial_j: float | None = None,
                 critical_fraction: float = 0.2):
        if capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= critical_fraction < 1.0:
            raise ValueError("critical fraction must be in [0, 1)")
        self.capacity_j = capacity_j
        self.remaining_j = capacity_j if initial_j is None else min(initial_j, capacity_j)
        self.initial_j = self.remaining_j
        self.threshold_j = critical_fraction * capacity_j
        self.consumed_j = 0.0
        self.harvested_j = 0.0

    @property
    def fraction(self) -> float:
        return self.remaining_j / self.capacity_j

    def edge_free_range(self, level: float) -> tuple[float, float]:
        """The levels `[low, high)` reachable from `level` without an edge: at
        or above the threshold, down to it; below it, from 0 J up to below it."""
        threshold = self.threshold_j
        return (threshold, math.inf) if level >= threshold else (0.0, threshold)

    def consume(self, joules: float) -> EventKind | None:
        if joules < 0:
            raise ValueError("cannot consume negative energy")
        before = self.remaining_j
        drawn = min(joules, before)
        self.remaining_j = before - drawn
        self.consumed_j += drawn
        if before >= self.threshold_j > self.remaining_j:
            return EventKind.BATTERY_LOW
        if drawn < joules and before > 0.0:  # ran dry mid-draw
            return EventKind.BATTERY_LOW
        return None

    def harvest(self, joules: float) -> tuple[float, EventKind | None]:
        if joules < 0:
            raise ValueError("cannot harvest negative energy")
        before = self.remaining_j
        added = min(joules, self.capacity_j - before)
        self.remaining_j = before + added
        self.harvested_j += added
        if before < self.threshold_j <= self.remaining_j:
            return added, EventKind.BATTERY_CHARGED
        return added, None


@dataclass(frozen=True)
class HarvestProfile:
    """Piecewise-constant input power: segments of (start time s, watts)."""

    segments: tuple[tuple[float, float], ...] = ((0.0, 0.0),)

    def __post_init__(self):
        if not all(math.isfinite(s) and math.isfinite(p) for s, p in self.segments):
            raise ValueError("profile segments must be finite")
        starts = [s for s, _ in self.segments]
        if starts != sorted(starts):
            raise ValueError("profile segments must be sorted by start time")
        if any(p < 0 for _, p in self.segments):
            raise ValueError("harvest power cannot be negative")

    def power_at(self, t_s: float) -> float:
        power = 0.0
        for start, p in self.segments:
            if t_s >= start:
                power = p
            else:
                break
        return power

    def energy_between(self, t0_s: float, t1_s: float) -> float:
        """Integral of the profile over [t0, t1] in joules."""
        if t1_s <= t0_s:
            return 0.0
        edges = [t0_s] + [s for s, _ in self.segments if t0_s < s < t1_s] + [t1_s]
        return sum(self.power_at(a) * (b - a) for a, b in zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# Calibration table (constant-current model)

def _norm(token: str) -> str:
    return token.strip().lower().replace("-", "_")


@dataclass(frozen=True)
class CurrentEntry:
    current_ma: float
    duration_ms: float | None  # None for residency states


class StateCurrentTable:
    """(device, state, profile) -> measured current, optionally phase-shaped."""

    def __init__(self):
        self._entries: dict[tuple[str, str, str], CurrentEntry] = {}

    def add(self, device: str, state: str, profile: str,
            current_ma: float, duration_ms: float | None) -> None:
        if current_ma < 0:
            raise CalibrationError(f"negative current for {device}/{state}/{profile}")
        self._entries[(_norm(device), _norm(state), _norm(profile))] = \
            CurrentEntry(current_ma, duration_ms)

    def lookup(self, device: str, state: str, profile: str = "normal") -> CurrentEntry:
        key = (_norm(device), _norm(state), _norm(profile))
        if key not in self._entries:
            raise UnknownStateError(f"no calibration entry for {key}")
        return self._entries[key]

    def has(self, device: str, state: str, profile: str = "normal") -> bool:
        return (_norm(device), _norm(state), _norm(profile)) in self._entries


# States the energy operations and the calibration checker depend on.
REQUIRED_STATES = (
    ("ble", "uplink_tx", "normal"),
    ("ble", "uplink_tx", "low_power"),
    ("ble", "conn_idle_0dbm", "normal"),
    ("ble", "conn_idle_0dbm", "low_power"),
    ("node", "vlc_tx_chunk", "normal"),
    ("node", "vlc_tx_chunk", "low_power"),
    ("node", "vlc_chunk_gap", "normal"),
    ("node", "vlc_chunk_gap", "low_power"),
    ("eink", "refresh_original", "normal"),
    ("eink", "refresh_optimized", "normal"),
    ("node", "deep_sleep", "very_low_power"),
    ("node", "deep_sleep_no_vlc_rx", "very_low_power"),
)


def load_calibration(path: str | Path) -> StateCurrentTable:
    """Parse a calibration CSV (device,state,profile,current_mA,duration_ms).

    Durations are blank for residency states. Raises CalibrationError with a
    line number on malformed rows and lists every missing required state."""
    table = StateCurrentTable()
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["device", "state", "profile", "current_mA", "duration_ms"]
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
            raise CalibrationError(
                f"{path}: header must be {','.join(expected)}, got {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            try:
                current = float(row["current_mA"])
                dur_raw = (row["duration_ms"] or "").strip()
                duration = float(dur_raw) if dur_raw else None
                table.add(row["device"], row["state"], row["profile"], current, duration)
            except (TypeError, ValueError, CalibrationError) as exc:
                raise CalibrationError(f"{path}:{lineno}: bad row {row}: {exc}") from exc
    missing = [key for key in REQUIRED_STATES if not table.has(*key)]
    if missing:
        raise CalibrationError(
            f"{path}: missing required calibration states: "
            + ", ".join("/".join(k) for k in missing))
    return table


def default_calibration_path() -> Path:
    return Path(__file__).parent / "data" / "calibration.csv"


def vlc_uplink_energy(table: StateCurrentTable, profile: str = "normal",
                      chunks: int = CHUNKS_PER_FRAME,
                      voltage: float = DEFAULT_SUPPLY_VOLTAGE) -> float:
    """Energy in joules to push one optical frame up the link.

    Integrates the measured chunk bursts plus the inter-chunk decode gaps; in
    the low-power profile the optical module is gated off between chunks and
    the gap current falls to the low-power idle level.
    """
    if chunks == 0:
        return 0.0
    chunk = table.lookup("node", "vlc_tx_chunk", profile)
    gap = table.lookup("node", "vlc_chunk_gap", profile)
    chunk_ms = chunk.duration_ms if chunk.duration_ms else CHUNK_AIRTIME_MS
    gap_ms = gap.duration_ms if gap.duration_ms else INTER_CHUNK_DELAY_MS
    return (chunks * phase_energy(chunk.current_ma, chunk_ms, voltage)
            + (chunks - 1) * phase_energy(gap.current_ma, gap_ms, voltage))


# ---------------------------------------------------------------------------
# Peripherals and per-action energy prediction

@dataclass(frozen=True)
class PhaseStep:
    """One constant-current phase of a node's operation sequence."""

    name: str
    current_ma: float
    duration_ns: int


def peripheral_steps(scenario: Scenario) -> tuple[PhaseStep, ...]:
    """Sensing, display refresh, and localization: one peripheral cycle."""
    return (
        PhaseStep("sense", scenario.sense_current_ma, millis(scenario.sense_duration_ms)),
        PhaseStep("eink", scenario.eink_current_ma, millis(scenario.eink_duration_ms)),
        PhaseStep("localize", scenario.localize_current_ma, millis(scenario.localize_duration_ms)),
    )


def peripheral_cycle_j(scenario: Scenario) -> float:
    """Energy one peripheral cycle draws above idle, floored at zero."""
    v = scenario.supply_voltage
    per_cycle = sum(
        phase_energy(step.current_ma, step.duration_ns / NS_PER_MS, v)
        - phase_energy(scenario.idle_current_ma, step.duration_ns / NS_PER_MS, v)
        for step in peripheral_steps(scenario))
    return max(0.0, per_cycle)


def predict_action_energy(scenario: Scenario, links: dict[Modality, LinkPlan],
                          action: Action, horizon_s: float) -> float:
    """Predicted energy in joules of executing `action` for `horizon_s`.

    The estimate assumes the node streams for the whole horizon at the
    action's deliverable rate: interface residency plus transmission bursts,
    plus the peripheral duty (sensing, display, localization) that only the
    performance mode keeps enabled. Used for ranking actions against each
    other, so a common basis matters more than schedule-exact accounting.
    """
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    v = scenario.supply_voltage
    if action.mode is Mode.SLEEP:
        return phase_energy(scenario.sleep_current_ma, horizon_s * 1e3, v)
    plan = links[action.modality]
    duty = min(1.0, plan.airtime_ns / plan.interval_ns[action.mode])
    stream_ma = duty * plan.tx_current_ma + (1.0 - duty) * scenario.idle_current_ma
    energy = phase_energy(stream_ma, horizon_s * 1e3, v)
    if action.mode is Mode.PERFORMANCE:
        energy += peripheral_cycle_j(scenario) * (horizon_s / scenario.peripheral_period_s)
    return energy
