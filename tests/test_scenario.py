"""Scenario file parsing, strict key validation, and shipped presets."""

import json
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hybridsim import runner
from hybridsim.actions import Mode, Modality
from hybridsim.cli import EXIT_VALIDATION, main
from hybridsim.linklayer import CONN_EVENT_LEN_MS
from hybridsim.optimizer import UtilityWeights
from hybridsim.runner import build_link_plans, run
from hybridsim.scenario import (_SCHEMA, MAX_NODES, Scenario, ScenarioError,
                                load_scenario, preset_path, scenario_dir)
from hybridsim.validation import default_calibration_path, load_calibration
from hybridsim.vlcframe import FrameCodecError, VlcFrame

MINIMAL = """
[scenario]
duration_s = 100
node_count = 2
optimizer = euno
"""


def _write(tmp_path, text):
    path = tmp_path / "test.cfg"
    path.write_text(text)
    return path


class TestPresets:
    def test_all_presets_load(self):
        for path in sorted(scenario_dir().glob("*.cfg")):
            load_scenario(path)

    def test_fig11_matches_reference_setup(self):
        s = load_scenario(preset_path("paper_fig11"))
        assert s.optimizer == "etno"
        assert s.inter_transmission_sleep is False
        assert s.node_count == 3
        assert s.battery_capacity_j == 8.0
        assert s.poll_slot_s == 25.0
        assert s.packet_bytes == 512
        assert s.target_rate_kbps == 300.0
        assert s.conservation_rate_kbps == 60.0
        assert s.etno_conservation_threshold == 0.4
        assert s.etno_sleep_threshold == 0.2
        assert s.weights.p_m == 0.91 and s.weights.p_ch == 0.1
        assert s.weights.period_s == 10.0

    def test_sleep_variant_differs_only_in_flag(self):
        a = load_scenario(preset_path("paper_fig11"))
        b = load_scenario(preset_path("paper_fig11b"))
        assert b.inter_transmission_sleep is True
        assert a.target_rate_kbps == b.target_rate_kbps

    def test_unknown_preset_name(self):
        with pytest.raises(ScenarioError):
            preset_path("paper_fig99")


# The measured rows that Scenario's current and duration defaults copy: the
# very-low-power duty cycle's deep sleep and wake-up, and otherwise the normal
# profile at 0 dBm and a 45 ms connection interval. `idle_current_ma`,
# `owc_tx_current_ma` and `localize_*` have no row.
_CALIBRATED_DEFAULTS = {
    "sleep": ("node", "deep_sleep", "very_low_power"),
    "wake": ("node", "wakeup", "very_low_power"),
    "ble_tx": ("ble", "uplink_tx", "normal"),
    "poll_command": ("ble", "downlink_rx", "normal"),
    "advertising": ("ble", "adv_interval_0dbm", "normal"),
    "sense": ("node", "cycle_sens_45ms_0dbm", "normal"),
    "eink": ("node", "cycle_eink_45ms_0dbm", "normal"),
}


def test_calibrated_defaults_match_their_table_rows():
    table, default = load_calibration(default_calibration_path()), Scenario()
    durations = 0
    for prefix, row in _CALIBRATED_DEFAULTS.items():
        current_ma, duration_ms = table[row]
        assert getattr(default, f"{prefix}_current_ma") == current_ma, row
        if hasattr(default, f"{prefix}_duration_ms"):
            assert getattr(default, f"{prefix}_duration_ms") == duration_ms, row
            durations += 1
    assert durations == 4


class TestParsing:
    def test_minimal_file_uses_defaults(self, tmp_path):
        s = load_scenario(_write(tmp_path, MINIMAL))
        assert s.duration_s == 100.0
        assert s.node_count == 2
        assert s.seed == 1
        assert s.weights.p_m == 0.91

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[bogus]\nx = 1\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "bogus" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[traffic]\nnot_a_key = 5\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "not_a_key" in str(err.value)

    def test_bad_value_reports_key(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[traffic]\npacket_bytes = soon\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "packet_bytes" in str(err.value)

    def test_missing_file(self, tmp_path):
        # Also a directory and a file that is not UTF-8: neither may fall
        # back to the defaults or escape as another error.
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"[scenario]\n# caf\xe9\nduration_s = 60\n")
        for path in (tmp_path / "nope.cfg", tmp_path, latin1):
            with pytest.raises(ScenarioError, match="cannot read scenario"):
                load_scenario(path)

    def test_weight_sum_violation_names_the_invariant(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[weights]\np_m = 0.5\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "p_M+p_S+p_L" in str(err.value)

    def test_harvest_profile_segments(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[energy]\nharvest_profile = 0:10, 500:2\n")
        s = load_scenario(path)
        assert s.harvest_segments() == ((0.0, 0.010), (500.0, 0.002))

    def test_both_harvest_keys_exit_2_naming_both(self, tmp_path, capsys):
        # A run would use the profile alone, so the constant would be ignored.
        path = _write(tmp_path, MINIMAL + "\n[energy]\nharvest_mw = 50\n"
                                          "harvest_profile = 0:10\n")
        assert main(["print-config", "--config", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[energy] harvest_mw" in captured.err
        assert "[energy] harvest_profile" in captured.err


class TestDerivedSchema:
    def test_every_field_maps_to_exactly_one_key(self):
        mapped = [name for section, keys in _SCHEMA.items() if section != "weights"
                  for name, _ in keys.values()]
        assert sorted(mapped) == sorted(name for name in Scenario.fields
                                        if name != "weights")
        assert len(mapped) == 51

    def test_weights_accept_exactly_the_utility_weights(self):
        weights = _SCHEMA["weights"]
        assert tuple(weights) == tuple(UtilityWeights.fields)
        assert all(key == name for key, (name, _) in weights.items())
        assert len(weights) == 17
        # Load errors find a key by field name, in one map for both types.
        assert not set(weights) & set(Scenario.fields)

    def test_default_valued_key_loads_the_default_scenario(self, tmp_path):
        default = Scenario()
        entries = [(section, key,
                    getattr(default.weights if section == "weights" else default, name))
                   for section, keys in _SCHEMA.items()
                   for key, (name, _) in keys.items()]
        for section, key, value in entries:
            text = "" if value == () else str(value)
            path = _write(tmp_path, f"[{section}]\n{key} = {text}\n")
            assert load_scenario(path) == default, (section, key)


class TestValidation:
    def test_negative_duration(self):
        with pytest.raises(ScenarioError):
            Scenario(duration_s=-1.0)

    def test_conservation_rate_cannot_exceed_target(self):
        with pytest.raises(ScenarioError):
            Scenario(target_rate_kbps=50.0, conservation_rate_kbps=60.0)

    def test_bad_optimizer_name(self):
        with pytest.raises(ScenarioError):
            Scenario(optimizer="greedy")

    def test_etno_threshold_ordering(self):
        with pytest.raises(ScenarioError):
            Scenario(etno_sleep_threshold=0.5, etno_conservation_threshold=0.4)

    def test_config_echo_is_json_serializable(self):
        s = Scenario()
        echo = json.dumps(s.to_dict(), sort_keys=True)
        assert "battery_capacity_j" in echo
        assert "p_ch" in echo

    def test_replace_checks_the_changed_scenario(self):
        with pytest.raises(ScenarioError, match=r"\[energy\] initial_fraction"):
            Scenario().replace(initial_fraction=2.0)

    def test_sweep_checks_each_rate_before_it_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(runner, "run", runs.append)
        with pytest.raises(ScenarioError, match=r"\[traffic\] target_rate_kbps"):
            runner.sweep(Scenario(), [-100.0])
        assert runs == []


class TestRecords:
    """The frozen records' shared behaviour (`hybridsim.record.Record`)."""

    @pytest.mark.parametrize("record", [
        Scenario(), UtilityWeights(),
        build_link_plans(Scenario())[Mode.PERFORMANCE, Modality.OWC],
        VlcFrame(1, 2, 3, b"hi"),
    ], ids=lambda record: type(record).__name__)
    def test_fields_refuse_assignment_and_deletion(self, record):
        for name in record.fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value

    def test_fields_by_position_or_keyword_compare_by_value(self):
        frame = VlcFrame(1, 2, payload_type=3)
        assert frame == VlcFrame(src=1, dst=2, payload_type=3, payload=b"")
        assert hash(frame) == hash(VlcFrame(1, 2, 3))
        assert frame != VlcFrame(1, 2, 4)
        assert repr(frame) == "VlcFrame(src=1, dst=2, payload_type=3, payload=b'')"

    @pytest.mark.parametrize("args, kwargs", [
        ((1, 2), {}), ((1, 2, 3), {"bogus": 0}), ((1, 2, 3), {"src": 1}),
        ((1, 2, 3, b"", 5), {}),
    ], ids=["missing", "unknown", "repeated", "too-many"])
    def test_a_bad_field_list_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="VlcFrame"):
            VlcFrame(*args, **kwargs)

    def test_replace_checks_the_changed_record(self):
        frame = VlcFrame(1, 2, 3)
        assert frame.replace(dst=9) == VlcFrame(1, 9, 3)
        with pytest.raises(FrameCodecError, match="src"):
            frame.replace(src=256)

    def test_to_dict_nests_each_record_in_field_order(self):
        config = Scenario().to_dict()
        assert list(config) == list(Scenario.fields)
        assert config["weights"] == UtilityWeights().to_dict()
        assert config["harvest_profile"] == ()


def _below(x: float):
    return st.floats(max_value=math.nextafter(x, -math.inf))


def _above(x: float):
    return st.floats(min_value=math.nextafter(x, math.inf))


def _not_positive(name: str):
    kind = Scenario.fields[name]
    return st.integers(max_value=0) if kind == "int" else st.floats(max_value=0.0)


def _unbalanced(default: float):
    """A static weight that breaks p_m + p_s + p_l = 1 on its own."""
    return st.floats(allow_nan=False).filter(lambda v: abs(v - default) > 1e-6)


_DEFAULT = Scenario()
_WEIGHTS = UtilityWeights()
# Out-of-range values per field, each invalid with every other key at its
# default; every key is also invalid as nan or +-inf.
_OUT_OF_RANGE = {
    **{name: _not_positive(name) for name in (
        "duration_s", "node_count", "distance_m", "packet_bytes", "poll_slot_s",
        "battery_capacity_j", "supply_voltage", "peripheral_period_s", "mtu_bytes",
        "bandwidth_hz", "owc_phy_rate_kbps", "tx_optical_power_w", "pd_area_m2",
        "responsivity_a_w", "concentrator_gain")},
    **{name: _below(0.0) for name in Scenario.fields
       if name in ("init_delay_s", "harvest_mw", "snr_jitter_db")
       or name.endswith(("_current_ma", "_duration_ms"))},
    "target_rate_kbps": _below(_DEFAULT.conservation_rate_kbps),
    "conservation_rate_kbps": st.floats(max_value=0.0) | _above(_DEFAULT.target_rate_kbps),
    "initial_fraction": st.floats(max_value=0.0) | _above(1.0),
    "interaction_probability": _below(0.0) | _above(1.0),
    "etno_sleep_threshold": _below(0.0) | _above(1.0),
    "etno_conservation_threshold": _below(0.0) | _above(1.0),
    "led_semi_angle_deg": st.floats(max_value=0.0) | st.floats(min_value=90.0),
    "pd_fov_deg": st.floats(max_value=0.0) | _above(90.0),
    "incidence_angle_deg": _below(0.0) | _above(90.0),
    "conn_interval_ms": st.floats(max_value=CONN_EVENT_LEN_MS),
}
_WEIGHTS_OUT_OF_RANGE = {
    **{name: _unbalanced(getattr(_WEIGHTS, name)) for name in ("p_m", "p_s", "p_l")},
    "f_c": _below(0.0) | st.floats(min_value=1.0),
    "ewma_lambda": st.floats(max_value=0.0) | _above(1.0),
    "sigmoid_k": st.floats(max_value=0.0),
    "period_s": st.floats(max_value=0.0),
}


@st.composite
def invalid_configs(draw) -> tuple[str, str]:
    """A one-key .cfg that sets one schema key out of range or non-finite,
    and that key as the file spells it, `[section] key`."""
    keys = [(section, key, name) for section, entries in _SCHEMA.items()
            for key, (name, _) in entries.items()]
    section, key, name = draw(st.sampled_from(keys))
    ranges = _WEIGHTS_OUT_OF_RANGE if section == "weights" else _OUT_OF_RANGE
    values = st.sampled_from(["nan", "inf", "-inf"])
    if name in ranges:
        values |= ranges[name].map(repr)
    return f"[{section}]\n{key} = {draw(values)}\n", f"[{section}] {key}"


class TestInvalidConfigs:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invalid_configs())
    def test_one_bad_key_fails_at_load_naming_it(self, tmp_path, capsys, config):
        text, key = config
        path = _write(tmp_path, text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert key in str(err.value)
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err


    @pytest.mark.parametrize("section,line", [
        ("peripherals", "period_s = 0"),
        ("optical", "phy_rate_kbps = 0"),
        ("radio", "phy_rate = 3M"),
        ("radio", "tx_power_dbm = 1e308"),  # the radio link budget overflows
        ("weights", "period_s = 0"),
        # One case per check after the per-field loop: ranges, spans and
        # checks that read more than one key.
        *(pytest.param(section, line, id=f"{section}-{line.split()[0]}-{tag}")
          for section, line, tag in (
              ("energy", "initial_fraction = 2", "range"),
              ("traffic", "poll_slot_s = 1e-10", "0ns"),
              ("traffic", "conservation_rate_kbps = 1000", "above-target"),
              ("scenario", "optimizer = foo", "unknown"),
              ("energy", "harvest_profile = 10:1,5:1", "unsorted"),
              ("radio", "conn_interval_ms = 1", "below-event"),
              ("optimizer", "interaction_probability = 2", "range"),
              ("topology", "incidence_angle_deg = 91", "range"),
              ("optical", "led_semi_angle_deg = 90", "range"),
              ("optical", "pd_fov_deg = 91", "range"),
              ("optimizer", "etno_conservation_threshold = 2", "range"),
              ("optimizer", "etno_sleep_threshold = 0.5", "above-conservation"),
              ("traffic", "target_rate_kbps = 1e12\nconservation_rate_kbps = 1\n"
                          "[optical]\nphy_rate_kbps = 1e12", "optical-spacing-0ns"),
              ("optical", "phy_rate_kbps = 1e12\n[traffic]\ntarget_rate_kbps = 1e12\n"
                          "conservation_rate_kbps = 1", "optical-spacing-0ns"),
              ("traffic", "conservation_rate_kbps = 1e-300", "spacing-overflow"),
              ("scenario", "duration_s = 2e6", "node-seconds"),
              ("scenario", "init_delay_s = 2e6", "node-seconds"),
              ("energy", "wake_duration_ms = 1e303", "overflow"),
              ("peripherals", "sense_duration_ms = 1e303", "overflow"),
              ("peripherals", "eink_duration_ms = 1e303", "overflow"),
              ("peripherals", "localize_duration_ms = 1e303", "overflow"),
              ("radio", "conn_interval_ms = 1e303", "overflow"),
              ("weights", "p_m = 0.5", "sum"),
              ("weights", "p_s = 0.5", "sum"),
              ("weights", "p_l = 0.5", "sum"),
              ("weights", "f_c = 1", "range"),
              ("weights", "ewma_lambda = 0", "range"),
              ("weights", "sigmoid_k = 0", "range"),
              ("energy", "harvest_profile = 0:nan", "nan"),
              ("energy", "harvest_profile = 0:-1", "negative"),
          )),
    ])
    def test_error_names_the_key_as_the_file_spells_it(self, tmp_path, section, line):
        # Each of these keys drops a prefix of its field's name, shares its
        # name with a key of another section, or is named by a check that
        # reads more than one key.
        with pytest.raises(ScenarioError) as err:
            load_scenario(_write(tmp_path, f"[{section}]\n{line}\n"))
        assert f"[{section}] {line.split()[0]}" in str(err.value)


# Every float key is set, one at a time on a 3 s run, to each of these values.
_GRID_VALUES = ("0", "5e-324", "1e-300", "1e-170", "1e-12", "1e-9", "0.5", "1",
                "1e6", "1e12", "1e100", "1e300", "1.7e308")
_TICK_PERIODS = {"poll_slot_s", "peripheral_period_s", "period_s"}


@pytest.mark.parametrize("sleep", ["true", "false"])
def test_every_scenario_that_loads_runs(tmp_path, sleep):
    """Load is the only gate: a one-key change either fails at load naming
    its key, or runs. The run's length and start stay at the base; a tick
    period below 1 ms that loads is not run, since it runs correctly but
    for long."""
    base = f"[scenario]\nduration_s = 3\ninit_delay_s = 0\ninter_transmission_sleep = {sleep}\n"
    failures = []
    for section, entries in _SCHEMA.items():
        for key, (name, convert) in entries.items():
            if convert is not float or section == "scenario":
                continue
            for value in _GRID_VALUES:
                path = _write(tmp_path, f"{base}[{section}]\n{key} = {value}\n")
                try:
                    scenario = load_scenario(path)
                except ScenarioError as err:
                    if f"[{section}] {key}" not in str(err):
                        failures.append((section, key, value, str(err)))
                    continue
                if name in _TICK_PERIODS and float(value) < 1e-3:
                    continue
                try:
                    run(scenario)
                except Exception as exc:  # noqa: BLE001 - any escape is the failure
                    failures.append((section, key, value, repr(exc)))
    assert failures == []


# Each int key's bound: the most nodes a run may hold, else the largest int
# that a double holds, which `Scenario` checks every int against.
_INT_BOUNDS = {("scenario", "node_count"): MAX_NODES,
               ("scenario", "seed"): int(sys.float_info.max),
               ("traffic", "packet_bytes"): int(sys.float_info.max),
               ("radio", "mtu_bytes"): int(sys.float_info.max)}


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value, id=f"{key}-{label}")
    for (section, key), bound in _INT_BOUNDS.items()
    for label, value in (("-1", -1), ("0", 0), ("1", 1), ("bound", bound),
                         ("1e400", 10 ** 400))])
def test_every_int_key_value_that_loads_runs(tmp_path, capsys, section, key, value):
    """An int key at -1, 0, 1, its bound or 10^400 either exits 2 naming the
    key, or runs a 3 s scenario to exit 0; a runtime error (exit 1) never
    passes."""
    header = "" if section == "scenario" else f"[{section}]\n"
    path = _write(tmp_path, f"[scenario]\nduration_s = 3\ninit_delay_s = 0\n"
                            f"{header}{key} = {value}\n")
    code = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code in (0, EXIT_VALIDATION), err
    assert code == 0 or f"[{section}] {key}" in err


def _key_pairs(count: int) -> list[tuple[tuple, tuple, str]]:
    """A fixed sample of `count` points: two distinct float or int keys (the
    float keys of `test_every_scenario_that_loads_runs`, and the int keys),
    each set to a value of `_GRID_VALUES` or -1, and the sleep flag."""
    keys = [(section, key, name) for section, entries in _SCHEMA.items()
            for key, (name, convert) in entries.items()
            if convert is int or convert is float and section != "scenario"]
    values = (*_GRID_VALUES, "-1")
    rng = random.Random(2026)
    return [(*((*pair, rng.choice(values)) for pair in rng.sample(keys, 2)),
             rng.choice(("true", "false"))) for _ in range(count)]


def test_every_key_pair_that_loads_runs(tmp_path):
    """A budget or a spacing can overflow only in combination (rate times
    size, distance times power), so 400 fixed key pairs each either fail at
    load naming one of their keys, or run the 3 s base. A tick period below
    1 ms that loads is not run, as in the one-key grid."""
    failures = []
    for *pair, sleep in _key_pairs(400):
        sections = {"scenario": ["duration_s = 3", "init_delay_s = 0",
                                 f"inter_transmission_sleep = {sleep}"]}
        for section, key, _, value in pair:
            sections.setdefault(section, []).append(f"{key} = {value}")
        path = _write(tmp_path, "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                        for section, lines in sections.items()))
        try:
            scenario = load_scenario(path)
        except ScenarioError as err:
            if not any(f"[{section}] {key}" in str(err) for section, key, _, _ in pair):
                failures.append((pair, str(err)))
            continue
        if any(name in _TICK_PERIODS and float(value) < 1e-3 for _, _, name, value in pair):
            continue
        try:
            run(scenario)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            failures.append((pair, repr(exc)))
    assert failures == []
