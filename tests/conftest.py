"""Shared test helpers."""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

from hybridsim.actions import ActionPlan, Mode, Modality
from hybridsim.kernel import EventKind
from hybridsim.metrics import NodeMetrics
from hybridsim.optimizer import EunoTable, UtilityWeights
from hybridsim.scenario import Scenario, load_scenario

ROOT = Path(__file__).resolve().parents[1]

# Every property test draws the same examples on every run, so that a failure
# reproduces, keeps no example database, and has no deadline on a shared host.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def _script(path: Path):
    """The module of a script that runs without pytest, loaded from its path
    with its own directory first on `sys.path`, as when it runs, so that it
    imports the scripts beside it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


# `outputs(scenario)` gathers every output of a run, which the differential
# tests compare; `runs()` lists every pinned run, whose lines
# tests/data/digest_runs.txt pins; `PRESETS` names the six paper figure presets.
digest_runs = _script(ROOT / "tests" / "data" / "digest_runs.py")
# `fleet_config(seed)` generates the benchmark's `fleet` scenario file.
perfbench_run = _script(ROOT / "perfbench" / "run.py")


def fleet(seed: int) -> Scenario:
    """The 64-node EUNO fleet that perfbench/run.py runs at `seed`, loaded
    from the file its `fleet_config` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fleet{seed}.cfg"
        path.write_text(perfbench_run.fleet_config(seed))
        return load_scenario(path)


def action_set(current):
    """The `(mode, modality)` keys of EUNO's fixed action set at `current`:
    both modalities of the two active modes, then the one sleep action, which
    carries `current`, so |A| stays 5. Keys, not rows: a row holds a dict and
    does not hash."""
    return [*((mode, modality) for mode in (Mode.PERFORMANCE, Mode.CONSERVATION)
              for modality in Modality), (Mode.SLEEP, current)]


def action_rows(energies, rates, successes=None):
    """A table of `ActionPlan` rows keyed like `runner.build_link_plans`'
    with the predicted joules, rate and packet success probability of each
    `(mode, modality)` key in `energies`, `rates` and `successes` (1.0 for
    a key it lacks); the policies read no other column."""
    successes = successes or {}
    return {(mode, modality): ActionPlan(
        mode, modality, airtime_ns=0, interval_ns=0, tx_current_ma=0.0,
        success_prob=successes.get((mode, modality), 1.0), snr_db=0.0,
        rate_kbps=rates[mode, modality], tails={},
        predicted_j=energies[mode, modality]) for mode, modality in energies}


def _euno_call(f_r=1.0, current=Modality.OWC, energies=None, rates=None,
               p_int=0.7, snr=None, sample=None, baseline=None,
               weights=UtilityWeights(), e_max_j=8.0):
    """Positional arguments of one `euno_select` call, the per-run table
    first. `energies` and `rates` may cover only `current`'s action set; the
    other modality's sleep action then takes the per-mode default."""
    other = Modality.BLE if current is Modality.OWC else Modality.OWC
    actions = [*action_set(current), (Mode.SLEEP, other)]
    energies = {**{(mode, modality): {Mode.PERFORMANCE: 0.45, Mode.CONSERVATION: 0.15,
                                      Mode.SLEEP: 0.01}[mode] for mode, modality in actions},
                **(energies or {})}
    rates = {**{(mode, modality): {Mode.PERFORMANCE: 300.0, Mode.CONSERVATION: 60.0,
                                   Mode.SLEEP: 0.0}[mode] for mode, modality in actions},
             **(rates or {})}
    snr = snr or {Modality.OWC: 70.0, Modality.BLE: 67.0}
    sample = snr[current] if sample is None else sample
    table = EunoTable.build(weights, e_max_j, p_int, action_rows(energies, rates))
    return table, f_r, current, sample if baseline is None else baseline, sample


@pytest.fixture()
def euno_call():
    """Builds `euno_select`'s arguments with defaults for every unspecified
    input."""
    return _euno_call


def tx_bursts(nm):
    """A node's `(start, end)` ns per burst, expanded from its run-length
    `tx_intervals` log of `(start, period, length, count)` records."""
    return [(start + i * period, start + i * period + length)
            for start, period, length, count in nm.tx_intervals
            for i in range(count)]


def metrics_fields(nm: NodeMetrics, **changes) -> dict:
    """Every `NodeMetrics` field of `nm` by name, with `changes` in place
    of some."""
    return {**{name: getattr(nm, name) for name in NodeMetrics.__slots__}, **changes}


def tick_each_node(nodes, now, harvest_j):
    """`tick_nodes` with every node settled, harvested, evaluated on a
    battery-charged edge and sampled through the node's own calls."""
    for node in nodes:
        node.sync(now)
        if node.harvest(harvest_j) is EventKind.BATTERY_CHARGED:
            node.evaluate_cb([node], now)
        node.sample()
