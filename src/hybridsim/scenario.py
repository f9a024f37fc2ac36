"""Scenario configuration: INI-style files, strict validation, presets.

Every tunable of the evaluation scenario is a named key; unknown sections or
keys are rejected so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .channel import PHY_RATE_SNR_SHIFT_DB, ble_link, owc_link
from .energy import HarvestProfile
from .kernel import millis, seconds
from .linklayer import CONN_EVENT_LEN_MS
from .optimizer import UtilityWeights

OPTIMIZERS = ("euno", "etno", "etno-owc")

# Fields that must be above zero; the ones named *_current_ma or
# *_duration_ms, and those in _NON_NEGATIVE, must not be below it.
_POSITIVE = (
    "duration_s", "node_count", "distance_m", "packet_bytes", "target_rate_kbps",
    "conservation_rate_kbps", "poll_slot_s", "battery_capacity_j", "supply_voltage",
    "peripheral_period_s", "mtu_bytes", "bandwidth_hz",
    "owc_phy_rate_kbps", "tx_optical_power_w", "pd_area_m2", "responsivity_a_w",
    "concentrator_gain",
)
_NON_NEGATIVE = ("init_delay_s", "harvest_mw", "snr_jitter_db")
# Each link budget and the keys it reads.
_LINK_BUDGETS = (
    ("radio", ble_link,
     ("distance_m", "ble_tx_power_dbm", "noise_figure_db", "bandwidth_hz")),
    ("optical", owc_link,
     ("distance_m", "incidence_angle_deg", "led_semi_angle_deg", "pd_fov_deg",
      "pd_area_m2", "concentrator_gain", "responsivity_a_w", "tx_optical_power_w")),
)
# A run holds every node and its whole 1 Hz trace and burst log in memory.
# Measured on Python 3.11: about 5.3 kB per node (its state, buffer, metrics
# and RNG), and per node-second of the run 40 B on the 64-node `fleet`, 116 B
# on fig12b and 290 B for a lone node sending a packet every 10 ms. These
# bounds keep a run near 1 GB at the largest of those rates.
MAX_NODES = 10_000
MAX_NODE_SECONDS = 3_600_000


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    # [scenario]
    duration_s: float = 1025.0
    init_delay_s: float = 5.0
    node_count: int = 3
    seed: int = 1
    optimizer: str = "euno"
    inter_transmission_sleep: bool = True

    # [topology]
    distance_m: float = 1.0
    incidence_angle_deg: float = 30.0

    # [traffic]
    packet_bytes: int = 512
    target_rate_kbps: float = 300.0
    conservation_rate_kbps: float = 60.0
    poll_slot_s: float = 25.0

    # [energy]
    battery_capacity_j: float = 8.0
    initial_fraction: float = 1.0
    harvest_mw: float = 10.0
    harvest_profile: tuple[tuple[float, float], ...] = ()
    supply_voltage: float = 3.3
    idle_current_ma: float = 3.3
    sleep_current_ma: float = 0.344
    owc_tx_current_ma: float = 36.0
    ble_tx_current_ma: float = 9.10
    wake_current_ma: float = 14.2
    wake_duration_ms: float = 909.0
    advertising_current_ma: float = 5.58
    init_advertising: bool = True
    poll_command_current_ma: float = 7.36
    poll_command_duration_ms: float = 2.33

    # [peripherals]
    sense_current_ma: float = 12.26
    sense_duration_ms: float = 516.0
    eink_current_ma: float = 7.24
    eink_duration_ms: float = 435.0
    localize_current_ma: float = 10.0
    localize_duration_ms: float = 100.0
    peripheral_period_s: float = 10.0

    # [radio]
    ble_phy_rate: str = "2M"
    ble_tx_power_dbm: float = 0.0
    conn_interval_ms: float = 45.0
    mtu_bytes: int = 247
    noise_figure_db: float = 7.0
    bandwidth_hz: float = 1e6

    # [optical]
    owc_phy_rate_kbps: float = 1000.0
    tx_optical_power_w: float = 0.5
    led_semi_angle_deg: float = 60.0
    pd_fov_deg: float = 60.0
    pd_area_m2: float = 1e-4
    responsivity_a_w: float = 0.54
    concentrator_gain: float = 3.0

    # [optimizer]
    etno_sleep_threshold: float = 0.2
    etno_conservation_threshold: float = 0.4
    interaction_probability: float = 0.7
    snr_jitter_db: float = 0.0

    # [weights]
    weights: UtilityWeights = field(default_factory=UtilityWeights)

    def __post_init__(self):
        for f in fields(self):
            value, key = getattr(self, f.name), _FILE_KEYS.get(f.name)
            # An int beyond a double's range is as unusable as an infinite float.
            if f.type in ("float", "int") and not abs(value) <= sys.float_info.max:
                raise ScenarioError(f"{key} must be finite and fit a double")
            if f.name in _POSITIVE and value <= 0:
                raise ScenarioError(f"{key} must be positive, got {value}")
            if (f.name in _NON_NEGATIVE
                    or f.name.endswith(("_current_ma", "_duration_ms"))) and value < 0:
                raise ScenarioError(f"{key} must not be negative, got {value}")
        file_key = _FILE_KEYS
        if self.node_count > MAX_NODES:
            raise ScenarioError(f"{file_key['node_count']} must be at most {MAX_NODES:,}, "
                                f"got {self.node_count}")
        # This bound also keeps the run's length far inside the ns clock.
        node_seconds = self.node_count * self.total_duration_s
        if node_seconds > MAX_NODE_SECONDS:
            raise ScenarioError(f"{file_key['node_count']} times {file_key['duration_s']} plus "
                                f"{file_key['init_delay_s']} must be at most "
                                f"{MAX_NODE_SECONDS:,} node-seconds, got {node_seconds:g}")
        try:
            HarvestProfile(segments=self.harvest_profile)
        except ValueError as exc:
            raise ScenarioError(f"{file_key['harvest_profile']}: {exc}") from exc
        if not 0 < self.initial_fraction <= 1:
            raise ScenarioError(f"{file_key['initial_fraction']} must be in (0, 1]")
        if not 0 <= self.interaction_probability <= 1:
            raise ScenarioError(f"{file_key['interaction_probability']} must be in [0, 1]")
        if not 0 <= self.incidence_angle_deg <= 90:
            raise ScenarioError(f"{file_key['incidence_angle_deg']} must be in [0, 90]")
        if not 0 < self.led_semi_angle_deg < 90 or not 0 < self.pd_fov_deg <= 90:
            raise ScenarioError(f"{file_key['led_semi_angle_deg']} must be in (0, 90) and "
                                f"{file_key['pd_fov_deg']} in (0, 90]")
        if self.conn_interval_ms <= CONN_EVENT_LEN_MS:
            raise ScenarioError(f"{file_key['conn_interval_ms']} must exceed the "
                                f"{CONN_EVENT_LEN_MS} ms connection event")
        if self.ble_phy_rate not in PHY_RATE_SNR_SHIFT_DB:
            raise ScenarioError(f"[radio] phy_rate must be one of {tuple(PHY_RATE_SNR_SHIFT_DB)}")
        for name, budget, keys in _LINK_BUDGETS:
            try:
                budget(self)
            except (ArithmeticError, ValueError):
                raise ScenarioError(f"the {name} link budget overflows or leaves its domain: "
                                    f"one of {', '.join(map(file_key.get, keys))} "
                                    "is out of range") from None
        if self.conservation_rate_kbps > self.target_rate_kbps:
            raise ScenarioError(f"{file_key['conservation_rate_kbps']} must not exceed "
                                f"{file_key['target_rate_kbps']}")
        # Every span the run converts to integer nanoseconds must convert, and a
        # tick or packet spacing of 0 ns would requeue itself at once for ever.
        # The optical link at the target rate has the shortest packet spacing
        # of any link plan (`runner.build_link_plans`), the conservation rate
        # the longest; the radio's is at least one connection interval.
        bits = self.packet_bytes * 8.0  # as a float, too many overflow to inf
        spans = (
            (file_key["poll_slot_s"], seconds, self.poll_slot_s, True),
            ("[weights] period_s", seconds, self.weights.period_s, True),
            (file_key["peripheral_period_s"], seconds, self.peripheral_period_s, True),
            (f"{file_key['packet_bytes']}, {file_key['target_rate_kbps']} and "
             f"{file_key['owc_phy_rate_kbps']} give an optical packet spacing that", millis,
             max(bits / self.target_rate_kbps, bits / self.owc_phy_rate_kbps), True),
            (f"{file_key['packet_bytes']} and {file_key['conservation_rate_kbps']} give a packet "
             "spacing that", millis, bits / self.conservation_rate_kbps, False),
            *((file_key[name], millis, getattr(self, name), False) for name in (
                "wake_duration_ms", "sense_duration_ms", "eink_duration_ms",
                "localize_duration_ms", "conn_interval_ms")),
        )
        for name, to_ns, span, tick in spans:
            try:
                ns = to_ns(span)
            except OverflowError:
                raise ScenarioError(f"{name} overflows the ns clock, got {span}") from None
            if tick and ns == 0:
                raise ScenarioError(f"{name} rounds to 0 ns, got {span}")
        if self.optimizer not in OPTIMIZERS:
            raise ScenarioError(f"{file_key['optimizer']} must be one of {OPTIMIZERS}")
        for name in ("etno_sleep_threshold", "etno_conservation_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise ScenarioError(f"{file_key[name]} must be in [0, 1]")
        if self.etno_sleep_threshold >= self.etno_conservation_threshold:
            raise ScenarioError(f"{file_key['etno_sleep_threshold']} must be below "
                                f"{file_key['etno_conservation_threshold']}")

    @property
    def total_duration_s(self) -> float:
        return self.init_delay_s + self.duration_s

    def harvest_segments(self) -> tuple[tuple[float, float], ...]:
        if self.harvest_profile:
            return self.harvest_profile
        return ((0.0, self.harvest_mw * 1e-3),)

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_bool(raw: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ValueError(f"not a boolean: {raw!r}")
    return value


def _parse_profile(raw: str) -> tuple[tuple[float, float], ...]:
    """Parse 't0:mw0, t1:mw1, ...' into (start_s, watts) segments."""
    segments = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        start, mw = part.split(":")
        segments.append((float(start), float(mw) * 1e-3))
    return tuple(segments)


# The .cfg schema follows the Scenario field order: each entry below opens a
# section, and the fields after it belong there until the next one.
_SECTION_STARTS = {
    "duration_s": "scenario", "distance_m": "topology", "packet_bytes": "traffic",
    "battery_capacity_j": "energy", "sense_current_ma": "peripherals",
    "ble_phy_rate": "radio", "owc_phy_rate_kbps": "optical",
    "etno_sleep_threshold": "optimizer",
}
# Fields whose file key drops the prefix that the section already implies.
_KEY_ALIASES = {
    "peripheral_period_s": "period_s", "ble_phy_rate": "phy_rate",
    "ble_tx_power_dbm": "tx_power_dbm", "owc_phy_rate_kbps": "phy_rate_kbps",
}
_CONVERTERS = {
    "float": float, "int": int, "str": str, "bool": _parse_bool,
    "tuple[tuple[float, float], ...]": _parse_profile,
}


def _build_schema() -> dict[str, dict[str, tuple[str, object]]]:
    """section -> key -> (field, converter). The field is a Scenario field,
    or under [weights] a UtilityWeights field."""
    schema: dict[str, dict[str, tuple[str, object]]] = {}
    section = None
    for f in fields(Scenario):
        if f.name == "weights":
            schema["weights"] = {w.name: (w.name, _CONVERTERS[w.type])
                                 for w in fields(UtilityWeights)}
            continue
        section = _SECTION_STARTS.get(f.name, section)
        key = _KEY_ALIASES.get(f.name, f.name)
        schema.setdefault(section, {})[key] = (f.name, _CONVERTERS[f.type])
    return schema


_SCHEMA = _build_schema()
# Each Scenario field's key as a file spells it, which its load errors name.
_FILE_KEYS = {name: f"[{section}] {key}" for section, keys in _SCHEMA.items()
              if section != "weights" for key, (name, _) in keys.items()}


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; unknown keys are errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path} as UTF-8 text: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    values: dict[str, object] = {}
    weights: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        target = weights if section == "weights" else values
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"{path}: unknown key [{section}] {key}")
            field_name, convert = _SCHEMA[section][key]
            try:
                target[field_name] = convert(raw)
            except ValueError as exc:
                raise ScenarioError(f"{path}: [{section}] {key}: {exc}") from exc
    if "harvest_mw" in values and "harvest_profile" in values:  # a Scenario holds both
        raise ScenarioError(f"{path}: set one of {_FILE_KEYS['harvest_mw']} and "
                            f"{_FILE_KEYS['harvest_profile']}, not both")
    try:
        return Scenario(weights=UtilityWeights(**weights), **values)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def scenario_dir() -> Path:
    return Path(__file__).parent / "data" / "scenarios"


def preset_path(name: str) -> Path:
    path = scenario_dir() / f"{name}.cfg"
    if not path.exists():
        raise ScenarioError(f"no such preset scenario: {name}")
    return path
