"""Run metrics, trace rows, and the on-disk trace format.

Each node produces a 1 Hz time series suitable for plotting energy
trajectories, plus counters. The series is kept column-wise in typed arrays:
two doubles per sample, one byte that codes its label, and the harvested_J
column once per run, shared by every node that the buffer never clamped;
sample `i` is at `t_s = i`. Files are written with fixed formatting so two
runs of the same scenario and seed are byte-identical.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from itertools import accumulate
from operator import add
from pathlib import Path

from .actions import Mode, Modality
from .linklayer import InterfaceState

TRACE_HEADER = "t_s,remaining_J,consumed_J,harvested_J,mode,modality,fsm_state"
SCHEMA_VERSION = 1
_ACTIONS = [(mode, modality) for mode in Mode for modality in Modality]
# A row's label columns, ",mode,modality,OWC|BLE", one per action and
# interface state; a sample stores the label's index here, its code.
TRACE_TAILS = tuple(f",{mode.value},{modality.value},{state.value}"
                    for mode, modality in _ACTIONS for state in InterfaceState)
# Each action's label codes by interface state: an `ActionPlan`'s `tails`.
TRACE_CODES = {action: {state: i * len(InterfaceState) + j
                        for j, state in enumerate(InterfaceState)}
               for i, action in enumerate(_ACTIONS)}
_TRACE_LABELS = tuple(tuple(tail[1:].split(",")) for tail in TRACE_TAILS)
# The trace files are formatted as bytes (`bytes % tuple` formats a float as
# `str % tuple` does, and faster); their label tails as bytes, by code.
_TAIL_BYTES = tuple(tail.encode() for tail in TRACE_TAILS)


TraceRow = namedtuple(
    "TraceRow", "t_s remaining_j consumed_j harvested_j mode modality fsm_state")


def _template(clock: list[bytes], harvest_column: list[float]) -> bytes:
    """A trace file with its header, and each row's clock text and
    `harvested_J` text in place, one row per sample of `harvest_column`;
    `clock` holds each row's head, the t_s text of sample `i` followed by
    its remaining_J and consumed_J fields left to fill with `%.9g` (which
    renders a float exactly as `format(value, ".9g")` does). Each row ends
    in `%s` for the label tail with its leading comma. Float text never
    holds a `%`."""
    return b"".join([TRACE_HEADER.encode(), b"\n",
                     *map(add, clock, map(b"%.9g%%s\n".__mod__, harvest_column))])


class NodeMetrics:
    """One node's samples and counters, which the node updates in place."""

    __slots__ = ("name", "values", "codes", "lumps", "clamped_at", "clamped_j", "bursts",
                 "bytes_delivered", "packets_lost", "modality_switches", "sleep_entries",
                 "eligible_s", "consumed_j", "harvested_j", "remaining_j", "initial_j")

    def __init__(self, name: str, lumps: array):
        self.name = name
        # The 1 Hz samples, column-wise: `values` holds each sample's
        # remaining_J and consumed_J in turn; `codes` holds the index of its
        # ",mode,modality,fsm_state" label in `TRACE_TAILS`. Sample `i` is at
        # `t_s = float(i)`: the start's sample at 0 s, then one per world
        # tick, each on a whole second.
        self.values = array("d")
        self.codes = array("B")
        # The run's joules per 1 Hz tick, `lumps[i - 1]` for the tick at `i`
        # s, one array that every node of the run shares; the ticks whose lump
        # the buffer clamped, by sample index, and the joules it took at each.
        # They make the harvested_J column (`harvest_column`).
        self.lumps = lumps
        self.clamped_at = array("i")
        self.clamped_j = array("d")
        # Run-length burst log: (start_ns, period_ns, length_ns, count) records,
        # four entries each (`tx_intervals`).
        self.bursts = array("q")
        self.bytes_delivered = 0
        self.packets_lost = 0
        self.modality_switches = 0
        self.sleep_entries = 0
        self.eligible_s = 0.0
        self.consumed_j = 0.0
        self.harvested_j = 0.0
        self.remaining_j = 0.0
        self.initial_j = 0.0

    def harvest_column(self) -> list[float]:
        """The harvested_J column: the run's lumps summed in tick order from
        0 J, with the joules the buffer took in place of each clamped tick's
        lump; the same float additions, in the same order, as the buffer's
        own total."""
        if not self.codes:
            return []
        lumps = self.lumps[:len(self.codes) - 1]
        for tick, joules in zip(self.clamped_at, self.clamped_j):
            lumps[tick - 1] = joules
        return list(accumulate(lumps, initial=0.0))

    @property
    def rows(self) -> list[TraceRow]:
        """The samples as TraceRows, built afresh on each read."""
        values = self.values
        return [TraceRow(float(i), r, c, h, *_TRACE_LABELS[code])
                for i, (r, c, h, code) in enumerate(zip(
                    values[0::2], values[1::2], self.harvest_column(), self.codes))]

    @property
    def tx_intervals(self) -> list[tuple[int, int, int, int]]:
        """The burst log's records as tuples, built afresh on each read."""
        log = iter(self.bursts)
        return list(zip(log, log, log, log))

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
    """Write one trace CSV per node plus a run-summary JSON; returns paths.

    Each trace file is one `%` format: a template per harvested_J column
    holds the clock and that column's text (`_template`), and the node's
    two value columns and label tails fill it. The run's shared column
    serves every node whose buffer never clamped the run's lumps, so the
    clock text and that column's template are built once per call. Files
    are written as bytes, so each row ends in `\\n` on every platform."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths, clock, shared = [], [], (None, -1, b"")
        for name, nm in sorted(metrics.nodes.items()):
            path = out / f"trace_{name}.csv"
            samples = len(nm.codes)
            # t_s: `%d` is `%.9g` of `float(i)` below 10**9 (see MAX_NODE_SECONDS)
            clock += [b"%d,%%.9g,%%.9g," % i for i in range(len(clock), samples)]
            if nm.clamped_at:
                template = _template(clock, nm.harvest_column())
            else:
                lumps, rows, template = shared
                if lumps is not nm.lumps or rows != samples:
                    template = _template(clock, nm.harvest_column())
                    shared = nm.lumps, samples, template
            values, fields = nm.values.tolist(), [None] * (3 * samples)
            fields[0::3], fields[1::3] = values[0::2], values[1::2]
            fields[2::3] = [_TAIL_BYTES[code] for code in nm.codes]
            path.write_bytes(template % tuple(fields))
            paths.append(path)
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(metrics.summary(), sort_keys=True, indent=2) + "\n")
        paths.append(summary_path)
        return paths
    except OSError as exc:
        raise OSError(f"cannot write traces under {out}: {exc}") from exc
