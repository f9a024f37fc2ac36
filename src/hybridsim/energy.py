"""Energy storage, harvesting, and consumption models of the simulator.

Every current and duration comes from the `Scenario`, whose defaults are bench
measurements of the target node; energy is integrated piecewise-constant
between phase transitions. The measured-current table itself is replayed only
by `validation.check_calibration`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import itemgetter

from .actions import Mode
from .kernel import NS_PER_MS, EventKind, millis


def phase_energy(current_ma: float, duration_ms: float, voltage: float) -> float:
    """Energy in joules of one constant-current phase: E = I * V * t."""
    return current_ma * 1e-3 * voltage * duration_ms * 1e-3


# ---------------------------------------------------------------------------
# Storage and harvesting

class EnergyBuffer:
    """Joule-denominated store with a single critical-fraction threshold.

    Crossing the threshold downward emits BatteryLow, upward BatteryCharged;
    both are edge-triggered with no extra hysteresis band. The remaining
    charge is clamped to [0, capacity] and the consumed/harvested totals count
    only energy actually drawn or stored, so the ledger
    remaining == initial + harvested - consumed holds up to the rounding of
    the float sums, not exactly.
    """

    def __init__(self, capacity_j: float, initial_j: float | None = None,
                 critical_fraction: float = 0.2):
        self.capacity_j = capacity_j
        self.remaining_j = capacity_j if initial_j is None else initial_j
        self.initial_j = self.remaining_j
        self.threshold_j = critical_fraction * capacity_j
        self.consumed_j = 0.0
        self.harvested_j = 0.0

    def consume(self, joules: float) -> EventKind | None:
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
        before = self.remaining_j
        added = min(joules, self.capacity_j - before)
        # `before + added` can round one ulp past the capacity.
        self.remaining_j = min(before + added, self.capacity_j)
        self.harvested_j += added
        if before < self.threshold_j <= self.remaining_j:
            return added, EventKind.BATTERY_CHARGED
        return added, None


_START = itemgetter(0)  # a harvest segment's start time


def energy_between(segments: tuple[tuple[float, float], ...], t0_s: float, t1_s: float) -> float:
    """Integral over [t0, t1] in joules of the piecewise-constant input power
    `segments`, sorted `(start time s, watts)` pairs, added piece by piece
    from the left; a segment applies from its start onwards, and before the
    first start the power is 0."""
    if t1_s <= t0_s:
        return 0.0
    i = bisect_right(segments, t0_s, key=_START)
    power = segments[i - 1][1] if i else 0.0
    total, since = 0.0, t0_s
    for start, p in segments[i:]:
        if start >= t1_s:
            break
        total += power * (start - since)
        power, since = p, start
    return total + power * (t1_s - since)


def harvest_lumps(segments: tuple[tuple[float, float], ...], run_s: int) -> array:
    """`energy_between(segments, t - 1.0, float(t))` for each second `t` from 1
    to `run_s`, bit for bit: a second inside one piece is its `0.0 + power * 1.0`,
    repeated per piece, and only a second that a start cuts is integrated."""
    lumps = array("d")
    powers = (0.0, *(power for _, power in segments))
    for power, end in zip(powers, (*(start for start, _ in segments), run_s)):
        whole = min(int(end), run_s)  # the seconds up to `end` left at `power`
        if whole > len(lumps):
            lumps.extend(array("d", (0.0 + power * 1.0,)) * (whole - len(lumps)))
        if len(lumps) < end and len(lumps) < run_s:  # `end` cuts the next second
            lumps.append(energy_between(segments, float(len(lumps)), len(lumps) + 1.0))
    return lumps


# ---------------------------------------------------------------------------
# Peripherals and per-action energy prediction

def duty_cycle(scenario) -> tuple[tuple[float, int], ...]:
    """The operation sequence of one duty cycle as `(mA, ns)` phases: wake-up,
    then the peripheral cycle (sensing, display refresh, localization)."""
    return tuple((ma, millis(ms)) for ma, ms in (
        (scenario.wake_current_ma, scenario.wake_duration_ms),
        (scenario.sense_current_ma, scenario.sense_duration_ms),
        (scenario.eink_current_ma, scenario.eink_duration_ms),
        (scenario.localize_current_ma, scenario.localize_duration_ms)))


def peripheral_cycle_j(scenario) -> float:
    """Energy one peripheral cycle draws above idle, floored at zero."""
    v = scenario.supply_voltage
    per_cycle = 0.0
    for ma, ns in duty_cycle(scenario)[1:]:
        per_cycle += (phase_energy(ma, ns / NS_PER_MS, v)
                      - phase_energy(scenario.idle_current_ma, ns / NS_PER_MS, v))
    return max(0.0, per_cycle)


def predict_action_energy(scenario, mode: Mode, airtime_ns: int, interval_ns: int,
                          tx_current_ma: float, horizon_s: float) -> float:
    """Predicted energy in joules of executing for `horizon_s` the action
    whose `ActionPlan` row holds these columns (spacing 0 in sleep mode).

    The estimate assumes the node streams for the whole horizon at the
    action's deliverable rate: interface residency plus transmission bursts,
    plus the peripheral duty (sensing, display, localization) that only the
    performance mode keeps enabled. Used for ranking actions against each
    other, so a common basis matters more than schedule-exact accounting.
    """
    v = scenario.supply_voltage
    if mode is Mode.SLEEP:
        return phase_energy(scenario.sleep_current_ma, horizon_s * 1e3, v)
    duty = airtime_ns / interval_ns  # a row's spacing is never below its airtime
    stream_ma = duty * tx_current_ma + (1.0 - duty) * scenario.idle_current_ma
    energy = phase_energy(stream_ma, horizon_s * 1e3, v)
    if mode is Mode.PERFORMANCE:
        energy += peripheral_cycle_j(scenario) * (horizon_s / scenario.peripheral_period_s)
    return energy
