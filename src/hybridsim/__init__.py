"""Discrete-event simulator for hybrid optical/radio IoT nodes.

The package models reconfigurable end nodes that stream sensor data to a
polling gateway over either an optical (LOS Lambertian) or a BLE link, with
measurement-calibrated energy consumption, solar harvesting, and two
reconfiguration policies: a utility optimizer (EUNO) and a threshold baseline
(ETNO, plus its optical-only variant).
"""

from .actions import Modality, Mode
from .kernel import Engine, EventKind, RngStream, SimEvent
from .metrics import MetricsRecord, write_traces
from .runner import run, sweep
from .scenario import Scenario, load_scenario, preset_path

__version__ = "0.1.0"

__all__ = [
    "Modality", "Mode", "Engine", "EventKind", "RngStream",
    "SimEvent", "MetricsRecord", "write_traces", "run", "sweep",
    "Scenario", "load_scenario", "preset_path", "__version__",
]
