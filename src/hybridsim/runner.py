"""Scenario wiring and the run/sweep entry points.

A run derives one table of action rows from the channel models at the
scenario's one distance and incidence angle, and drives the polling MAC, the
per-node reconfiguration policy, harvesting, and 1 Hz trace sampling through
the event kernel.
"""

from __future__ import annotations

from . import channel
from .actions import ActionPlan, Mode, Modality
from .energy import EnergyBuffer, energy_between, predict_action_energy
from .kernel import Engine, EventKind, NS_PER_SEC, RngStream, millis, seconds
from .linklayer import ble_airtime
from .metrics import TRACE_TAILS, MetricsRecord, NodeMetrics
from .node import CHAIN_STEPS, SimNode, tick_nodes
from .optimizer import EunoTable, etno_select, euno_select, ewma_update
from .record import Record
from .scenario import OPTIMIZERS, Scenario

GATEWAY_IDLE_W = 1.28  # mains-powered access point draw, reported only


def build_link_plans(scenario: Scenario) -> dict[tuple[Mode, Modality], ActionPlan]:
    """The run's table: one row per `(mode, modality)` action. Every node
    sits at the scenario's distance and incidence angle, so one table
    serves them all. A row's predicted joules cover one policy period."""
    bits = scenario.packet_bytes * 8
    ble_airtime_ms = ble_airtime(scenario.packet_bytes, scenario.ble_phy_rate,
                                 scenario.mtu_bytes)
    owc_airtime_ms = bits / scenario.owc_phy_rate_kbps
    links = (
        (Modality.OWC, owc_airtime_ms, owc_airtime_ms, scenario.owc_tx_current_ma,
         channel.owc_link(scenario)),
        # The radio moves one application packet per connection event, so
        # packet spacing can never drop below the connection interval.
        (Modality.BLE, ble_airtime_ms, max(scenario.conn_interval_ms, ble_airtime_ms),
         scenario.ble_tx_current_ma, channel.ble_link(scenario)),
    )
    plans = {}
    for modality, airtime_ms, min_spacing_ms, tx_current_ma, (snr, ber) in links:
        success_prob = channel.packet_success(ber, bits)
        for mode, rate in ((Mode.PERFORMANCE, scenario.target_rate_kbps),
                           (Mode.CONSERVATION, scenario.conservation_rate_kbps),
                           (Mode.SLEEP, None)):
            interval_ns = 0 if rate is None else millis(max(bits / rate, min_spacing_ms))
            columns = (mode, modality, millis(airtime_ms), interval_ns, tx_current_ma,
                       success_prob, snr, bits / (interval_ns / 1e6) if interval_ns else 0.0,
                       TRACE_TAILS[mode, modality])
            plans[mode, modality] = ActionPlan(*columns, predict_action_energy(
                scenario, ActionPlan(*columns), scenario.weights.period_s))
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
        self.harvest_segments = scenario.harvest_segments()
        self.total_ns = seconds(scenario.total_duration_s)
        self.nodes: list[SimNode] = []
        for i in range(scenario.node_count):
            name = f"node{i + 1}"
            buffer = EnergyBuffer(
                capacity_j=scenario.battery_capacity_j,
                initial_j=scenario.battery_capacity_j * scenario.initial_fraction,
                critical_fraction=scenario.weights.f_c,
            )
            node = SimNode(name, scenario, self.plans, buffer, engine, NodeMetrics(name),
                           RngStream(scenario.seed, i + 1), best)
            node.evaluate_cb = self.evaluate
            engine.register(name, node.handle)
            self.nodes.append(node)
        # Round-robin polling: slot k belongs to node k % node_count.
        self.slot = -1
        engine.register("gateway", self._on_gateway_event)
        engine.register("world", self._on_world_event)
        engine.register(CHAIN_STEPS, self._on_chain_steps)

    # -- policy ---------------------------------------------------------------

    def evaluate(self, node: SimNode, now: int) -> None:
        scenario = self.scenario
        weights = scenario.weights
        node.sync(now)
        jitter, current = scenario.snr_jitter_db, node.plan.modality
        snr = {}
        for link in self.link_rows:
            value = link.snr_db
            if jitter > 0:
                value += node.rng.normal(0.0, jitter)
            snr[link.modality] = value
        sample = snr[current]
        if node.ewma_baseline_db is None:
            node.ewma_baseline_db = sample
        else:
            node.ewma_baseline_db = ewma_update(node.ewma_baseline_db, sample,
                                                weights.ewma_lambda)
        if scenario.optimizer == "euno":
            plan = euno_select(self.euno, node.buffer.fraction, current,
                               node.ewma_baseline_db, sample)
        else:
            plan = etno_select(
                self.plans,
                node.buffer.fraction,
                scenario.etno_sleep_threshold,
                scenario.etno_conservation_threshold,
                current,
                _best_snr(snr),
                owc_only=(scenario.optimizer == "etno-owc"),
            )
        node.apply_action(plan, now)

    # -- event handlers ---------------------------------------------------------

    def _on_gateway_event(self, engine: Engine, event) -> None:
        now = engine.now
        if self.slot < 0:
            for node in self.nodes:
                node.sync(now)
                node.park()
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
            for node in self.nodes:
                self.evaluate(node, now)
            nxt = now + seconds(self.scenario.weights.period_s)
            if nxt <= self.total_ns:
                engine.schedule_at(nxt, "world", EventKind.OPTIMIZER_TICK)
        elif event.kind is EventKind.HARVEST_TICK:
            tick_nodes(self.nodes, now, event.payload)
            self._schedule_harvest_tick(now + NS_PER_SEC)
        elif event.kind is EventKind.PERIPHERAL_TICK:  # only without inter-transmission sleep
            for node in self.nodes:
                node.on_peripheral_cycle(now)
            nxt = now + seconds(self.scenario.peripheral_period_s)
            if nxt <= self.total_ns:
                engine.schedule_at(nxt, "world", EventKind.PERIPHERAL_TICK)

    def _on_chain_steps(self, engine: Engine, event) -> None:
        """End one chain step of each member of the batch, in the order they
        were queued."""
        now = engine.now
        for node, epoch in event.payload:
            node.on_chain_step(now, epoch)

    def _schedule_harvest_tick(self, at: int) -> None:
        """Queue the 1 Hz world tick at `at` if the run reaches it, carrying
        the joules the one profile gives every node in the second before.
        The period is one fact: sample `i` is at `t_s = i`, and
        `SimNode._crosses` relies on the tick requeuing 1 s on."""
        if at <= self.total_ns:
            t_s = at / NS_PER_SEC
            self.engine.schedule_at(at, "world", EventKind.HARVEST_TICK,
                                    energy_between(self.harvest_segments, t_s - 1.0, t_s))

    # -- run -----------------------------------------------------------------

    def start(self) -> None:
        init = seconds(self.scenario.init_delay_s)
        for node in self.nodes:
            node.sample()
        self.engine.schedule_at(init, "gateway", EventKind.POLL_TICK)
        self.engine.schedule_at(init, "world", EventKind.OPTIMIZER_TICK)
        self._schedule_harvest_tick(NS_PER_SEC)
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


def run(scenario: Scenario) -> MetricsRecord:
    """Execute one deterministic run of the scenario."""
    engine = Engine()
    controller = _Controller(scenario, engine)
    controller.start()
    engine.run_until(controller.total_ns)
    return controller.finalize()


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


def sweep(base: Scenario, rates: list[float],
          optimizers: tuple[str, ...] = OPTIMIZERS) -> SweepResult:
    """One run per (target rate, optimizer) with the base scenario's seed;
    reports the achieved rate averaged over all nodes."""
    if not rates:
        raise ValueError("sweep needs at least one target rate")
    rows = []
    for rate in rates:
        for optimizer in optimizers:
            scenario = base.replace(
                target_rate_kbps=rate, optimizer=optimizer,
                conservation_rate_kbps=min(base.conservation_rate_kbps, rate))
            metrics = run(scenario)
            total = 0.0
            for nm in metrics.nodes.values():
                total += nm.achieved_rate_kbps
            rows.append(SweepRow(rate, optimizer, total / len(metrics.nodes)))
    return SweepResult(rows=tuple(rows))
