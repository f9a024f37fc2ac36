"""Run metrics, trace rows, and the on-disk trace format.

Each node produces a 1 Hz time series suitable for plotting energy
trajectories, plus counters. The series is kept column-wise: three doubles
per sample in one array, and one shared label string per sample; sample `i` is
at `t_s = i`. Files are written with fixed formatting so two runs of the same
scenario and seed are byte-identical.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from pathlib import Path

from .actions import Mode, Modality
from .linklayer import InterfaceState

TRACE_HEADER = "t_s,remaining_J,consumed_J,harvested_J,mode,modality,fsm_state"
SCHEMA_VERSION = 1
# A row's label columns, ",mode,modality,OWC|BLE", per action and interface
# state, built once: every sample in one state shares the string.
TRACE_TAILS = {
    (mode, modality): {state: f",{mode.value},{modality.value},{state.value}"
                       for state in InterfaceState}
    for mode in Mode for modality in Modality}
# `%.9g` renders a float exactly as `format(value, ".9g")` does; the time and
# harvested_J columns come formatted, the label tail with its leading comma.
_ROW_FORMAT = "%s,%.9g,%.9g,%s%s"


TraceRow = namedtuple(
    "TraceRow", "t_s remaining_j consumed_j harvested_j mode modality fsm_state")


def _columns(values: array) -> tuple[array, ...]:
    """The remaining_J, consumed_J and harvested_J columns of `values`."""
    return values[0::3], values[1::3], values[2::3]


class NodeMetrics:
    """One node's samples and counters, which the node updates in place."""

    __slots__ = ("name", "values", "tails", "bytes_delivered", "packets_lost",
                 "modality_switches", "sleep_entries", "eligible_s", "tx_intervals",
                 "consumed_j", "harvested_j", "remaining_j", "initial_j")

    def __init__(self, name: str):
        self.name = name
        # The 1 Hz samples, column-wise: `values` holds each sample's
        # remaining_J, consumed_J and harvested_J in turn; `tails` holds its
        # ",mode,modality,fsm_state" label, one string shared by every sample
        # with that label. Sample `i` is at `t_s = float(i)`: the start's
        # sample at 0 s, then one per world tick, each on a whole second.
        self.values = array("d")
        self.tails: list[str] = []
        self.bytes_delivered = 0
        self.packets_lost = 0
        self.modality_switches = 0
        self.sleep_entries = 0
        self.eligible_s = 0.0
        # Run-length burst log: (start_ns, period_ns, length_ns, count) records.
        self.tx_intervals: list[tuple[int, int, int, int]] = []
        self.consumed_j = 0.0
        self.harvested_j = 0.0
        self.remaining_j = 0.0
        self.initial_j = 0.0

    @property
    def rows(self) -> list[TraceRow]:
        """The samples as TraceRows, built afresh on each read."""
        return [TraceRow(float(i), r, c, h, *tail[1:].split(","))
                for i, (r, c, h, tail) in enumerate(zip(*_columns(self.values), self.tails))]

    @property
    def achieved_rate_kbps(self) -> float:
        if self.eligible_s <= 0:
            return 0.0
        return self.bytes_delivered * 8 / self.eligible_s / 1e3

    @property
    def megabytes_delivered(self) -> float:
        return self.bytes_delivered / 1e6

    def counters(self) -> dict:
        return {
            "bytes_delivered": self.bytes_delivered,
            "packets_lost": self.packets_lost,
            "modality_switch_count": self.modality_switches,
            "sleep_entries": self.sleep_entries,
            "transmit_eligible_s": round(self.eligible_s, 9),
            "achieved_rate_kbps": round(self.achieved_rate_kbps, 9),
            "megabytes_delivered": round(self.megabytes_delivered, 9),
            "consumed_j": round(self.consumed_j, 12),
            "harvested_j": round(self.harvested_j, 12),
            "remaining_j": round(self.remaining_j, 12),
            "initial_j": round(self.initial_j, 12),
        }


class MetricsRecord:
    """A run's outcome: its scenario as a dict, seed, each node's metrics by
    name, the gateway's joules and the count of model events."""

    def __init__(self, config: dict, seed: int, nodes: dict[str, NodeMetrics],
                 gateway_consumed_j: float = 0.0, events_executed: int = 0):
        self.config = config
        self.seed = seed
        self.nodes = nodes
        self.gateway_consumed_j = gateway_consumed_j
        self.events_executed = events_executed

    def node(self, index: int) -> NodeMetrics:
        return self.nodes[f"node{index}"]

    def summary(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "config": self.config,
            "gateway_consumed_j": round(self.gateway_consumed_j, 9),
            "events_executed": self.events_executed,
            "nodes": {name: nm.counters() for name, nm in sorted(self.nodes.items())},
        }


def write_traces(metrics: MetricsRecord, out_dir: str | Path) -> list[Path]:
    """Write one trace CSV per node plus a run-summary JSON; returns paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # Columns all nodes share are formatted once: the clock, and harvested_J
        # until its bytes change (bytes, since -0.0 == 0.0 prints apart).
        paths, times, harvest_bytes, harvest_text = [], [], None, []
        for name, nm in sorted(metrics.nodes.items()):
            path = out / f"trace_{name}.csv"
            times += ["%.9g" % float(i) for i in range(len(times), len(nm.tails))]
            remaining, consumed, harvested = _columns(nm.values)
            key = harvested.tobytes()
            if key != harvest_bytes:
                harvest_bytes, harvest_text = key, list(map("%.9g".__mod__, harvested))
            lines = map(_ROW_FORMAT.__mod__,
                        zip(times, remaining, consumed, harvest_text, nm.tails))
            path.write_text("\n".join([TRACE_HEADER, *lines]) + "\n")
            paths.append(path)
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(metrics.summary(), sort_keys=True, indent=2) + "\n")
        paths.append(summary_path)
        return paths
    except OSError as exc:
        raise OSError(f"cannot write traces under {out}: {exc}") from exc
