"""Scenario configuration: INI-style files, strict validation, presets.

Every tunable of the evaluation scenario is a named key; unknown sections or
keys are rejected so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import math
import sys
from pathlib import Path

from .actions import Mode
from .channel import PHY_RATE_SNR_SHIFT_DB, ble_link, owc_link
from .kernel import NS_PER_SEC, millis, seconds
from .linklayer import CONN_EVENT_LEN_MS, packet_spans
from .optimizer import UtilityWeights
from .record import Record

OPTIMIZERS = ("euno", "etno", "etno-owc")

# Each link budget and the keys it reads.
_LINK_BUDGETS = (
    ("radio", ble_link,
     ("distance_m", "ble_tx_power_dbm", "noise_figure_db", "bandwidth_hz")),
    ("optical", owc_link,
     ("distance_m", "incidence_angle_deg", "led_semi_angle_deg", "pd_fov_deg",
      "pd_area_m2", "concentrator_gain", "responsivity_a_w", "tx_optical_power_w")),
)
# A run holds every node and its whole 1 Hz trace in memory. Measured on
# Python 3.11: about 4.8 kB per node (its state, buffer, metrics and RNG;
# tracemalloc's peak over a 1 s run of 2,100 nodes less one of 100), and per
# node-second of the run (the record tracemalloc counts after `run`) 18.8 B
# on the 64-node `fleet`, 23 B on fig12b and 44 B for a lone node sending a
# packet every 10 ms for 600 s, its buffer clamping every tick. The bounds
# are unchanged from when those read 40, 116 and 290 B, which kept a run
# near 1 GB; at the largest rate they now keep one near 0.2 GB.
MAX_NODES = 10_000
MAX_NODE_SECONDS = 3_600_000


class ScenarioError(ValueError):
    pass


class Scenario(Record):
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
    weights: UtilityWeights = UtilityWeights()

    def _validate(self):
        file_key = _FILE_KEYS
        for owner in (self, self.weights):
            for name, kind in owner.fields.items():
                value = getattr(owner, name)
                # An int beyond a double's range is as unusable as an infinite float.
                if kind in ("float", "int") and not abs(value) <= sys.float_info.max:
                    raise ScenarioError(f"{file_key[name]} must be finite and fit a double")
                if name not in _RANGES:
                    continue
                low, high, low_ok, high_ok = _RANGES[name]
                if ((value >= low if low_ok else value > low)
                        and (value <= high if high_ok else value < high)):
                    continue
                if high == math.inf:
                    rule = "not be negative" if low_ok else "be positive"
                else:
                    rule = f"be in {'(['[low_ok]}{low:g}, {high:g}{')]'[high_ok]}"
                raise ScenarioError(f"{file_key[name]} must {rule}, got {value}")
        weights = self.weights
        static = weights.p_m + weights.p_s + weights.p_l
        if abs(static - 1.0) > 1e-9:
            raise ScenarioError(f"{file_key['p_m']}, {file_key['p_s']} and {file_key['p_l']} "
                                f"must sum to 1: p_M+p_S+p_L = {static}")
        starts = [start for start, _ in self.harvest_profile]
        if not all(math.isfinite(start) and 0 <= power < math.inf
                   for start, power in self.harvest_profile) or starts != sorted(starts):
            raise ScenarioError(f"{file_key['harvest_profile']} must list finite start times in "
                                "order, each with a finite power that is not negative")
        if self.conn_interval_ms <= CONN_EVENT_LEN_MS:
            raise ScenarioError(f"{file_key['conn_interval_ms']} must exceed the "
                                f"{CONN_EVENT_LEN_MS} ms connection event")
        if self.ble_phy_rate not in PHY_RATE_SNR_SHIFT_DB:
            raise ScenarioError(f"{file_key['ble_phy_rate']} must be one of "
                                f"{tuple(PHY_RATE_SNR_SHIFT_DB)}")
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
        keys = ", ".join(file_key[name] for name in (
            "packet_bytes", "target_rate_kbps", "conservation_rate_kbps", "ble_phy_rate",
            "conn_interval_ms", "mtu_bytes", "owc_phy_rate_kbps"))
        try:
            rows = packet_spans(self).items()
        except OverflowError:
            raise ScenarioError("an action row's airtime or packet spacing overflows the ns "
                                f"clock: one of {keys} is out of range") from None
        # Every span the run converts to integer ns must convert. One rule bounds each
        # periodic span, given the nodes each firing settles (a tick every node, a packet
        # only the slot holder): it must not round to 0 ns, which would requeue it at once
        # for ever, and its firings over the run times those nodes must stay within
        # MAX_NODE_SECONDS. The 1 Hz tick's row, the node-seconds bound, also keeps the run
        # inside the ns clock (a run too long for a double reads inf and fails it).
        run_ns, every = self.total_duration_s * NS_PER_SEC, self.node_count
        spans = (
            ("the 1 Hz tick", seconds, 1.0, every),
            (file_key["poll_slot_s"], seconds, self.poll_slot_s, every),
            (file_key["period_s"], seconds, weights.period_s, every),
            (file_key["peripheral_period_s"], seconds, self.peripheral_period_s, every),
            *((f"a packet spacing (one of {keys})", int, interval, 1)
              for (mode, _), (_, interval) in rows if mode is not Mode.SLEEP),
            *((file_key[name], millis, getattr(self, name), 0) for name in (
                "wake_duration_ms", "sense_duration_ms", "eink_duration_ms",
                "localize_duration_ms")),
        )
        for name, to_ns, span, nodes in spans:
            try:
                ns = to_ns(span)
            except OverflowError:
                raise ScenarioError(f"{name} overflows the ns clock, got {span}") from None
            if nodes and not ns:
                raise ScenarioError(f"{name} rounds to 0 ns, got {span}")
            if nodes and nodes * run_ns / ns > MAX_NODE_SECONDS:
                raise ScenarioError(
                    f"the firings of {name} over the run ({file_key['duration_s']} plus "
                    f"{file_key['init_delay_s']}), times the nodes each settles "
                    f"({file_key['node_count']} for a tick, 1 for a packet), must be at most "
                    f"{MAX_NODE_SECONDS:,}, got {nodes * run_ns / ns:g}")
        if self.optimizer not in OPTIMIZERS:
            raise ScenarioError(f"{file_key['optimizer']} must be one of {OPTIMIZERS}")
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


# Each numeric field's range, Scenario and UtilityWeights fields alike:
# field -> (low, high, low allowed, high allowed). A field not listed may take
# any finite value.
_RANGES = {
    **dict.fromkeys((
        "duration_s", "distance_m", "packet_bytes", "target_rate_kbps",
        "conservation_rate_kbps", "poll_slot_s", "battery_capacity_j", "supply_voltage",
        "peripheral_period_s", "mtu_bytes", "bandwidth_hz", "owc_phy_rate_kbps",
        "tx_optical_power_w", "pd_area_m2", "responsivity_a_w", "concentrator_gain",
        "sigmoid_k", "period_s"), (0, math.inf, False, False)),
    **dict.fromkeys(("init_delay_s", "harvest_mw", "snr_jitter_db", *(
        name for name in Scenario.fields if name.endswith(("_current_ma", "_duration_ms")))),
        (0, math.inf, True, False)),
    **dict.fromkeys(("interaction_probability", "etno_sleep_threshold",
                     "etno_conservation_threshold"), (0, 1, True, True)),
    "node_count": (0, MAX_NODES, False, True),
    "initial_fraction": (0, 1, False, True),
    "ewma_lambda": (0, 1, False, True),
    "f_c": (0, 1, True, False),
    "incidence_angle_deg": (0, 90, True, True),
    "led_semi_angle_deg": (0, 90, False, False),
    "pd_fov_deg": (0, 90, False, True),
}

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
    for name, kind in Scenario.fields.items():
        if name == "weights":
            schema["weights"] = {weight: (weight, _CONVERTERS[weight_kind])
                                 for weight, weight_kind in UtilityWeights.fields.items()}
            continue
        section = _SECTION_STARTS.get(name, section)
        key = _KEY_ALIASES.get(name, name)
        schema.setdefault(section, {})[key] = (name, _CONVERTERS[kind])
    return schema


_SCHEMA = _build_schema()
# Each Scenario and UtilityWeights field's key as a file spells it, which its
# load errors name; no field name is in both.
_FILE_KEYS = {name: f"[{section}] {key}" for section, keys in _SCHEMA.items()
              for key, (name, _) in keys.items()}


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; unknown keys are errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path} as UTF-8 text: {exc}") from exc
    # `%` is read as written; no file names the empty default section, so `[DEFAULT]` is unknown.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
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
