"""Span tracing of hybridsim's public calls, installed from outside the package.

`install()` wraps the calls the per-layer metrics are built from. Calls that
cover at least one whole event (event handlers, the dispatch loop, policy
evaluations, energy prediction, link-plan builds, scenario loads and trace
writes) become spans. Calls finer than one event (schedule, cancel, buffer
consume/harvest, interface FSM dispatch) are only counted, because timing
them would cost more than the work they do.

Spans are kept in typed arrays until the pass ends; `summary()` then derives
each span name's self time, which is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

from hybridsim import energy, kernel, metrics, node, runner, scenario
from hybridsim.kernel import EventKind

_clock = time.perf_counter_ns

# (module owning the handler, event kind) -> span name of that event's handler.
HANDLER_SPANS = {
    ("node", EventKind.APP_PACKET_READY): "node.packet_ready",
    ("node", EventKind.TRANSMIT_END): "node.transmit_end",
    ("node", EventKind.PERIPHERAL_TICK): "node.chain_step",
    ("runner", EventKind.POLL_TICK): "runner.poll_tick",
    ("runner", EventKind.HARVEST_TICK): "runner.harvest_tick",
    ("runner", EventKind.OPTIMIZER_TICK): "runner.optimizer_tick",
    ("runner", EventKind.PERIPHERAL_TICK): "runner.peripheral_tick",
}


class Tracer:
    """Records spans (name, start, end, parent) and call counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """Wrap `fn` so that each call records one span called `name`."""
        nid = self.name_id(name)
        start, end, names, parent, stack = (self.start, self.end, self.name,
                                            self.parent, self._open)

        def wrapper(*args, **kwargs):
            index = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = _clock()
                stack.pop()

        return wrapper

    def summary(self, wall_ns: int) -> dict:
        """Calls and self time per span name, and the part of `wall_ns` that
        no top-level span covers."""
        start, end, parent = self.start, self.end, self.parent
        child_ns = [0] * len(start)
        covered = 0
        for i in range(len(start)):
            duration = end[i] - start[i]
            if parent[i] >= 0:
                child_ns[parent[i]] += duration
            else:
                covered += duration
        calls = Counter()
        self_ns = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child_ns[i]
        spans = {self.names[n]: {"calls": calls[n], "self_s": self_ns[n] / 1e9}
                 for n in range(len(self.names))}
        return {"spans": spans, "counts": dict(self.counts),
                "pass_wall_s": wall_ns / 1e9,
                "uncovered_s": (wall_ns - covered) / 1e9,
                "self_sum_s": sum(self_ns.values()) / 1e9}


def install(tracer: Tracer) -> None:
    """Wrap hybridsim's public calls for the rest of this process."""
    counts = tracer.counts

    register = kernel.Engine.register

    def traced_register(engine, target, handler):
        layer = type(handler.__self__).__module__.rsplit(".", 1)[-1]
        by_kind = {}
        for (owner, kind), name in HANDLER_SPANS.items():
            if owner == layer:
                by_kind[kind] = tracer.timed(name, handler)

        def dispatch(engine_, event):
            counts["kernel.events"] += 1
            wrapped = by_kind.get(event.kind)
            if wrapped is None:
                wrapped = by_kind[event.kind] = tracer.timed(
                    f"{layer}.{event.kind.name.lower()}", handler)
            wrapped(engine_, event)

        register(engine, target, dispatch)

    schedule = kernel.Engine.schedule

    def counted_schedule(engine, event):
        counts["kernel.scheduled"] += 1
        return schedule(engine, event)

    cancel = kernel.Engine.cancel

    def counted_cancel(engine, handle):
        cancelled = cancel(engine, handle)
        counts["kernel.cancelled"] += cancelled
        return cancelled

    consume = energy.EnergyBuffer.consume

    def counted_consume(buffer, joules):
        edge = consume(buffer, joules)
        counts["energy.consume_calls"] += 1
        if edge is EventKind.BATTERY_LOW:
            counts["energy.battery_low_edges"] += 1
        return edge

    harvest = energy.EnergyBuffer.harvest

    def counted_harvest(buffer, joules):
        added, edge = harvest(buffer, joules)
        counts["energy.harvest_calls"] += 1
        if edge is EventKind.BATTERY_CHARGED:
            counts["energy.battery_charged_edges"] += 1
        return added, edge

    fsm_dispatch = node.fsm_dispatch

    def counted_fsm_dispatch(current, event_kind, *args, **kwargs):
        counts["linklayer.fsm_dispatches"] += 1
        if event_kind is EventKind.TRANSMIT_START:
            counts["node.tx_bursts"] += 1
        return fsm_dispatch(current, event_kind, *args, **kwargs)

    kernel.Engine.register = traced_register
    kernel.Engine.run_until = tracer.timed("kernel.run_until", kernel.Engine.run_until)
    kernel.Engine.schedule = counted_schedule
    kernel.Engine.cancel = counted_cancel
    energy.EnergyBuffer.consume = counted_consume
    energy.EnergyBuffer.harvest = counted_harvest
    node.fsm_dispatch = counted_fsm_dispatch
    runner.euno_select = tracer.timed("optimizer.select", runner.euno_select)
    runner.etno_select = tracer.timed("optimizer.select", runner.etno_select)
    runner.predict_action_energy = tracer.timed("energy.predict",
                                                runner.predict_action_energy)
    runner.build_link_plans = tracer.timed("runner.link_plan", runner.build_link_plans)
    metrics.write_traces = tracer.timed("metrics.write", metrics.write_traces)
    scenario.load_scenario = tracer.timed("scenario.load", scenario.load_scenario)
