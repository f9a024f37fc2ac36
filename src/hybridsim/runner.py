"""Scenario wiring and the run/sweep entry points.

A run derives one table of action rows from the channel models at the
scenario's one distance and incidence angle, and drives the polling MAC, the
per-node reconfiguration policy, harvesting, and 1 Hz trace sampling through
the event kernel.
"""

from __future__ import annotations

from . import channel
from .actions import ActionPlan, Mode, Modality
from .energy import EnergyBuffer, harvest_lumps, predict_action_energy
from .kernel import Engine, EventKind, NS_PER_SEC, RngStream, seconds
from .linklayer import packet_spans
from .metrics import TRACE_CODES, MetricsRecord, NodeMetrics
from .node import CHAIN_STEPS, SimNode, end_chain_steps, start_peripheral_cycles, tick_nodes
from .optimizer import EunoTable, etno_select, euno_select, ewma_update
from .record import Record
from .scenario import OPTIMIZERS, Scenario

GATEWAY_IDLE_W = 1.28  # mains-powered access point draw, reported only


def build_link_plans(scenario: Scenario) -> dict[tuple[Mode, Modality], ActionPlan]:
    """The run's table: one row per `(mode, modality)` action, timed by
    `packet_spans`. Every node sits at the scenario's distance and incidence
    angle, so one table serves them all. A row's predicted joules cover one policy period."""
    bits = scenario.packet_bytes * 8
    links = {Modality.OWC: (scenario.owc_tx_current_ma, channel.owc_link(scenario)),
             Modality.BLE: (scenario.ble_tx_current_ma, channel.ble_link(scenario))}
    plans = {}
    for (mode, modality), (airtime_ns, interval_ns) in packet_spans(scenario).items():
        tx_ma, (snr, ber) = links[modality]
        plans[mode, modality] = ActionPlan(
            mode, modality, airtime_ns, interval_ns, tx_ma, channel.packet_success(ber, bits), snr,
            bits / (interval_ns / 1e6) if interval_ns else 0.0, TRACE_CODES[mode, modality],
            predict_action_energy(scenario, mode, airtime_ns, interval_ns, tx_ma,
                                  scenario.weights.period_s))
    return plans


def _best_snr(snr: dict[Modality, float]) -> Modality:
    """The modality with the highest SNR; a tie goes to the optical link."""
    return max(snr, key=lambda m: (snr[m], m is Modality.OWC))


class _Controller:
    """Owns the polling gateway, the policy evaluations, harvesting, and the
    1 Hz sampling loop for one run."""

    def __init__(self, scenario: Scenario, engine: Engine):
        self.scenario = scenario
        self.engine = engine
        self.plans = build_link_plans(scenario)
        # EUNO's terms depend only on the rows, so they are scored once.
        self.euno = EunoTable.build(scenario.weights, scenario.battery_capacity_j,
                                    scenario.interaction_probability, self.plans)
        # The two links' rows, in the order their SNR jitter is drawn.
        self.link_rows = (self.plans[Mode.PERFORMANCE, Modality.OWC],
                          self.plans[Mode.PERFORMANCE, Modality.BLE])
        best = _best_snr({link.modality: link.snr_db for link in self.link_rows})
        self.total_ns = seconds(scenario.total_duration_s)
        # The joules the one harvest profile gives every node in the second
        # before each 1 Hz tick: `lumps[i - 1]` for the tick at `i` s. Each
        # tick carries its lump, and each node's harvested_J column sums them.
        self.lumps = harvest_lumps(scenario.harvest_segments(), self.total_ns // NS_PER_SEC)
        self.nodes: list[SimNode] = []
        for i in range(scenario.node_count):
            name = f"node{i + 1}"
            buffer = EnergyBuffer(
                capacity_j=scenario.battery_capacity_j,
                initial_j=scenario.battery_capacity_j * scenario.initial_fraction,
                critical_fraction=scenario.weights.f_c,
            )
            node = SimNode(name, scenario, self.plans, buffer, engine,
                           NodeMetrics(name, self.lumps), RngStream(scenario.seed, i + 1), best,
                           self.evaluate)
            engine.register(name, node.handle)
            self.nodes.append(node)
        # Round-robin polling: slot k belongs to node k % node_count.
        self.slot = -1
        engine.register("gateway", self._on_gateway_event)
        engine.register("world", self._on_world_event)
        engine.register("tick", self._on_tick)
        engine.register(CHAIN_STEPS, self._on_chain_steps)

    # -- policy ---------------------------------------------------------------

    def evaluate(self, nodes: list[SimNode], now: int) -> None:
        """Settle each of `nodes` to `now` and take the row its policy
        chooses: every node at a policy period, one at a battery edge."""
        scenario = self.scenario
        jitter, lam = scenario.snr_jitter_db, scenario.weights.ewma_lambda
        owc, ble = self.link_rows
        snr = {owc.modality: owc.snr_db, ble.modality: ble.snr_db}
        capacity = scenario.battery_capacity_j  # every buffer's
        euno = self.euno if scenario.optimizer == "euno" else None
        owc_only = scenario.optimizer == "etno-owc"
        for node in nodes:
            node.sync(now)
            current = node.plan.modality
            if jitter > 0:  # one draw per link, in `link_rows`' order
                snr = {owc.modality: owc.snr_db + node.rng.normal(0.0, jitter),
                       ble.modality: ble.snr_db + node.rng.normal(0.0, jitter)}
            sample = baseline = snr[current]
            if node.ewma_baseline_db is not None:
                baseline = ewma_update(node.ewma_baseline_db, sample, lam)
            node.ewma_baseline_db = baseline
            f_r = node.buffer.remaining_j / capacity
            if euno is not None:
                plan = euno_select(euno, f_r, current, baseline, sample)
            else:
                plan = etno_select(self.plans, f_r,
                                   scenario.etno_sleep_threshold,
                                   scenario.etno_conservation_threshold,
                                   current, _best_snr(snr), owc_only=owc_only)
            node.apply_action(plan, now)

    # -- event handlers ---------------------------------------------------------

    def _on_gateway_event(self, engine: Engine, event) -> None:
        now = engine.now
        if self.slot < 0:  # the first poll settles every node outside its slot
            for node in self.nodes:
                node.exit_slot(now)
        else:
            self.nodes[self.slot % len(self.nodes)].exit_slot(now)
        self.slot += 1
        slot_ns = seconds(self.scenario.poll_slot_s)
        slot_end = min(now + slot_ns, self.total_ns)
        self.nodes[self.slot % len(self.nodes)].enter_slot(now, slot_end)
        if now + slot_ns < self.total_ns:
            engine.schedule_at(now + slot_ns, "gateway", EventKind.POLL_TICK)

    def _on_world_event(self, engine: Engine, event) -> None:
        now = engine.now
        if event.kind is EventKind.OPTIMIZER_TICK:
            self.evaluate(self.nodes, now)
            nxt = now + seconds(self.scenario.weights.period_s)
            if nxt <= self.total_ns:
                engine.schedule_at(nxt, "world", EventKind.OPTIMIZER_TICK)
        elif event.kind is EventKind.PERIPHERAL_TICK:  # only without inter-transmission sleep
            start_peripheral_cycles(self.nodes, now)
            nxt = now + seconds(self.scenario.peripheral_period_s)
            if nxt <= self.total_ns:
                engine.schedule_at(nxt, "world", EventKind.PERIPHERAL_TICK)

    def _on_chain_steps(self, engine: Engine, event) -> None:
        end_chain_steps(event.payload, engine.now)

    def _on_tick(self, engine: Engine, event) -> None:
        """The 1 Hz world tick: tick the nodes with its lump, and re-arm it 1 s
        on with the next one if the run gets there. The period is one fact:
        sample `i` is at `t_s = i`, and `SimNode._crosses` relies on it."""
        now = engine.now
        tick_nodes(self.nodes, now, event.payload)
        second = now // NS_PER_SEC
        if second < len(self.lumps):
            engine.rearm(event, now + NS_PER_SEC, self.lumps[second])

    # -- run -----------------------------------------------------------------

    def start(self) -> None:
        init = seconds(self.scenario.init_delay_s)
        for node in self.nodes:
            node.sample()
        self.engine.schedule_at(init, "gateway", EventKind.POLL_TICK)
        self.engine.schedule_at(init, "world", EventKind.OPTIMIZER_TICK)
        if self.lumps:
            self.engine.schedule_at(NS_PER_SEC, "tick", EventKind.HARVEST_TICK, self.lumps[0])
        if not self.scenario.inter_transmission_sleep:
            self.engine.schedule_at(init + seconds(self.scenario.peripheral_period_s),
                                    "world", EventKind.PERIPHERAL_TICK)

    def finalize(self) -> MetricsRecord:
        end = self.total_ns
        nodes = {}
        for node in self.nodes:
            node.finalize_accounting(end)
            m, b = node.metrics, node.buffer
            m.initial_j, m.consumed_j, m.harvested_j, m.remaining_j = (
                b.initial_j, b.consumed_j, b.harvested_j, b.remaining_j)
            nodes[node.name] = m
        return MetricsRecord(
            config=self.scenario.to_dict(),
            seed=self.scenario.seed,
            nodes=nodes,
            gateway_consumed_j=GATEWAY_IDLE_W * self.scenario.total_duration_s,
            events_executed=self.engine.events_executed,
        )

    def run(self) -> MetricsRecord:
        """Start the run, run it to its end and return its record."""
        self.start()
        self.engine.run_until(self.total_ns)
        return self.finalize()


def run(scenario: Scenario) -> MetricsRecord:
    """Execute one deterministic run of the scenario."""
    return _Controller(scenario, Engine()).run()


class SweepRow(Record):
    target_rate_kbps: float
    optimizer: str
    achieved_rate_kbps: float


class SweepResult(Record):
    rows: tuple[SweepRow, ...]

    def achieved(self, rate: float, optimizer: str) -> float:
        for row in self.rows:
            if row.target_rate_kbps == rate and row.optimizer == optimizer:
                return row.achieved_rate_kbps
        raise KeyError((rate, optimizer))

    def to_csv(self) -> str:
        lines = ["target_rate_kbps,optimizer,achieved_rate_kbps"]
        lines += [f"{r.target_rate_kbps:.9g},{r.optimizer},{r.achieved_rate_kbps:.9g}"
                  for r in self.rows]
        return "\n".join(lines) + "\n"


def sweep_scenario(base: Scenario, rate: float, optimizer: str) -> Scenario:
    """The base scenario at target rate `rate` under `optimizer`, its
    conservation rate capped at the target: one run of `sweep`."""
    return base.replace(target_rate_kbps=rate, optimizer=optimizer,
                        conservation_rate_kbps=min(base.conservation_rate_kbps, rate))


def sweep(base: Scenario, rates: list[float],
          optimizers: tuple[str, ...] = OPTIMIZERS) -> SweepResult:
    """One run per (target rate, optimizer) with the base scenario's seed;
    reports the achieved rate averaged over all nodes."""
    if not rates:
        raise ValueError("sweep needs at least one target rate")
    rows = []
    for rate in rates:
        for optimizer in optimizers:
            metrics = run(sweep_scenario(base, rate, optimizer))
            total = 0.0
            for nm in metrics.nodes.values():
                total += nm.achieved_rate_kbps
            rows.append(SweepRow(rate, optimizer, total / len(metrics.nodes)))
    return SweepResult(rows=tuple(rows))
