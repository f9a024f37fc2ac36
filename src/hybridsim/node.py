"""Runtime behaviour of one simulated end node.

A node owns its interface state machine, its energy buffer, and its traffic
pacing. Consumption is integrated piecewise-constant: the node is always in
exactly one draw phase (sleep, idle, wake-up, a peripheral operation, or a
transmission burst) whose current comes from the scenario's calibration
values. Every entry point settles the elapsed energy up to `now` before
it changes the phase, so a phase change is a plain assignment.
"""

from __future__ import annotations

from .actions import ActionPlan, Mode, Modality
from .energy import EnergyBuffer, duty_cycle, phase_energy
from .kernel import Engine, EventKind, SimEvent, SimTime, NS_PER_SEC
from .linklayer import InterfaceState, fsm_dispatch
from .metrics import NodeMetrics
from .scenario import Scenario


# The target of every chain step's end: a batch of `(node, epoch)` members
# (`Engine.schedule_batched`), since the world's peripheral cycle starts every
# parked node's chain at one instant. The runner registers its handler, which
# ends the members' steps in one pass, `end_chain_steps`.
CHAIN_STEPS = "chain"
# Read once per chain step: under Python 3.11 an enum member lookup costs
# about 95 ns, four times a global's.
_CHAIN_STEP = EventKind.CHAIN_STEP

_ASLEEP = (InterfaceState.OFF, InterfaceState.SLEEP)
_TX_MODALITY = {InterfaceState.OWC_TX: Modality.OWC, InterfaceState.BLE_TX: Modality.BLE}


class ProtocolViolation(RuntimeError):
    """A transmission was attempted from an interface state other than IDLE."""


def fitting_bursts(remaining: float, floor: float, step: float, bursts: int) -> int:
    """How many of `bursts` draws of `step` J each a stretch can settle at
    once, as `remaining - n * step`, without going below `floor` (which is
    at most `remaining`): all of them, else the most that stay above it.

    Only when the whole run does not fit is the count divided out, so the
    quotient stays below about `bursts` (a tiny `step` gives no huge or
    infinite quotient) and the two corrections only mend its rounding."""
    if not bursts or remaining - bursts * step >= floor:
        return bursts
    n = min(bursts - 1, int((remaining - floor) // step))
    while n and remaining - n * step < floor:
        n -= 1
    while n + 1 < bursts and remaining - (n + 1) * step >= floor:
        n += 1
    return n


class SimNode:
    def __init__(self, name: str, scenario: Scenario,
                 plans: dict[tuple[Mode, Modality], ActionPlan],
                 buffer: EnergyBuffer, engine: Engine, metrics: NodeMetrics,
                 rng_stream, initial_modality: Modality, evaluate_cb):
        self.name = name
        self.scenario = scenario
        self.plans = plans
        self.buffer = buffer
        self.engine = engine
        self.metrics = metrics
        self.rng = rng_stream
        self._duty_cycle = duty_cycle(scenario)
        self._sleeps_between_slots = scenario.inter_transmission_sleep and scenario.node_count > 1
        # Receiving the poll command costs one downlink reception burst.
        self._poll_command_j = phase_energy(scenario.poll_command_current_ma,
                                            scenario.poll_command_duration_ms,
                                            scenario.supply_voltage)
        # The row of the node's action: its mode, modality and stream shape.
        self.plan = plans[Mode.PERFORMANCE, initial_modality]
        self.interfaces = InterfaceState.IDLE
        self.in_slot = False
        self.slot_end_ns: SimTime = 0
        self._tx_started_ns: SimTime = 0
        # Before the first poll a node advertises if the scenario says so.
        advertising = scenario.init_advertising and scenario.init_delay_s > 0
        self._phase_ma = (scenario.advertising_current_ma if advertising
                          else scenario.idle_current_ma)
        self._phase_since: SimTime = 0
        self._eligible_since: SimTime | None = None
        # Only `_reconcile` (every change of slot, mode or battery state) and a
        # new peripheral cycle, which supersedes a chain still running, bump the
        # epoch; a packet or chain step queued under an older epoch is stale.
        self._epoch = 0
        self._chain: tuple[tuple[float, int], ...] = ()  # phases still to run in this chain
        self._pending_packet: SimEvent | None = None
        self.evaluate_cb = evaluate_cb  # the policy, called with `[self]` on battery edges
        self.ewma_baseline_db: float | None = None

    @property
    def awake(self) -> bool:
        # Only a sleep signal or a battery-low edge powers the interfaces
        # down, and only a wake signal powers them on again.
        return self.interfaces not in _ASLEEP

    @property
    def tx_in_flight(self) -> bool:
        return self.interfaces in _TX_MODALITY

    # -- energy phase integration ------------------------------------------

    def _joules(self, current_ma: float, elapsed: SimTime) -> float:
        """Energy of `elapsed` ns at `current_ma`: the one expression of a
        draw, which `sync` and the stretch call and `tick_nodes` writes out
        in place."""
        return current_ma * 1e-3 * self.scenario.supply_voltage * elapsed / NS_PER_SEC

    def sync(self, now: SimTime) -> None:
        """Settle consumption of the current phase up to `now`: the settle of
        every entry point and world pass but the 1 Hz tick's. A draw that
        keeps the buffer on its side of the threshold (at or above it, or in
        [0 J, threshold)) is written in place, in `consume`'s float order;
        any other goes through `consume`, the one path that raises an edge."""
        elapsed = now - self._phase_since
        if elapsed <= 0:
            return
        self._phase_since = now
        buffer = self.buffer
        remaining, drawn = buffer.remaining_j, self._joules(self._phase_ma, elapsed)
        after = remaining - drawn
        if buffer.threshold_j <= after if remaining >= buffer.threshold_j else 0.0 <= after:
            buffer.remaining_j = after
            buffer.consumed_j += drawn
        elif buffer.consume(drawn) is EventKind.BATTERY_LOW:
            self._on_battery_low(now)

    def harvest(self, joules: float) -> EventKind | None:
        """Store the 1 Hz tick's `joules`, the run's lump, and return the
        buffer's edge. A tick whose lump the buffer clamps is logged with
        the joules it took, since the node's harvested_J column then leaves
        the run's shared one."""
        added, edge = self.buffer.harvest(joules)
        if added != joules:
            metrics = self.metrics
            metrics.clamped_at.append(len(metrics.codes))  # the sample this tick appends
            metrics.clamped_j.append(added)
        return edge

    def sample(self) -> None:
        """Append the trace sample of the next whole second; the caller settled
        the node. `tick_nodes` appends the same two entries inline."""
        buffer, metrics = self.buffer, self.metrics
        metrics.values.fromlist([buffer.remaining_j, buffer.consumed_j])
        metrics.codes.append(self.plan.tails[self.interfaces])

    # -- battery edges ------------------------------------------------------

    def _on_battery_low(self, now: SimTime) -> None:
        if self.tx_in_flight:
            self.metrics.packets_lost += 1
            started = self._tx_started_ns
            self.metrics.bursts.fromlist([started, 0, now - started, 1])
        self.interfaces = fsm_dispatch(self.interfaces, EventKind.BATTERY_LOW)
        if self.plan.mode is not Mode.SLEEP:
            self.metrics.sleep_entries += 1
        self.plan = self.plans[Mode.SLEEP, self.plan.modality]
        self._reconcile(now)
        self.evaluate_cb([self], now)

    # -- transmit-eligible accounting ----------------------------------------

    def _close_eligible(self, now: SimTime) -> None:
        if self._eligible_since is not None:
            self.metrics.eligible_s += (now - self._eligible_since) / NS_PER_SEC
            self._eligible_since = None

    # -- MAC-level sleep/wake -------------------------------------------------

    def park(self) -> None:
        """Rest outside a slot or a burst: sleep if the mode asks for it, or the
        scenario does and another node's slot comes next, else wake and idle."""
        if self.plan.mode is Mode.SLEEP or self._sleeps_between_slots:
            if self.awake:
                self.interfaces = fsm_dispatch(self.interfaces, EventKind.SLEEP_SIGNAL)
            self._phase_ma = self.scenario.sleep_current_ma
        else:
            if not self.awake:
                self.interfaces = fsm_dispatch(self.interfaces, EventKind.WAKE_SIGNAL)
            self._phase_ma = self.scenario.idle_current_ma

    # -- polling slots ---------------------------------------------------------

    def enter_slot(self, now: SimTime, slot_end: SimTime) -> None:
        self.sync(now)
        self.in_slot = True
        self.slot_end_ns = slot_end
        # A node in sleep mode takes no poll command; a battery-charged edge
        # may still revive it mid-slot.
        if (self.plan.mode is not Mode.SLEEP
                and self.buffer.consume(self._poll_command_j) is EventKind.BATTERY_LOW):
            self._on_battery_low(now)
        else:
            self._reconcile(now)

    def exit_slot(self, now: SimTime) -> None:
        self.sync(now)
        self.in_slot = False
        if self._pending_packet is not None:
            self.engine.cancel(self._pending_packet)  # kept: a burst's end reads it
        self._reconcile(now)

    def _run_chain(self, now: SimTime, chain: tuple[tuple[float, int], ...]) -> None:
        self._chain = chain
        self._advance_chain(now)

    def _advance_chain(self, now: SimTime) -> None:
        """Start the next step of the chain, whose end is queued in a batch
        with the other nodes' steps that end then (see `CHAIN_STEPS`); at the
        chain's end, stream if the node holds the slot, else idle: a live step
        sees the slot and the mode its chain started in, never asleep, since a
        change of either bumps the epoch."""
        chain = self._chain
        if chain:
            self._phase_ma, ns = chain[0]
            self._chain = chain[1:]
            self.engine.schedule_batched(now + ns, CHAIN_STEPS, _CHAIN_STEP, (self, self._epoch))
        elif self.in_slot:
            self._start_streaming(now)
        else:
            self._phase_ma = self.scenario.idle_current_ma

    # -- traffic ----------------------------------------------------------------

    def _start_streaming(self, now: SimTime) -> None:
        if self.tx_in_flight:
            return  # the burst's end restreams, as its packet-ready is now stale
        self._phase_ma = self.scenario.idle_current_ma
        # The first packet is ready one spacing on: one at once would overshoot the rate.
        ready_at = now + self.plan.interval_ns
        self._pending_packet = self.engine.schedule_at(
            ready_at, self.name, EventKind.APP_PACKET_READY, payload=self._epoch)

    def on_packet_ready(self, now: SimTime, epoch: int) -> None:
        """Send the ready packet and keep streaming.

        Before the engine's horizon nothing but this node's own bursts can
        happen, so the bursts whose end and next packet-ready fall before it
        and that raise no battery edge run here as one stretch
        (`_run_stretch`), on through the 1 Hz world tick where it can; the
        stretch draws all of its packet outcomes in one call.
        The burst that stops it is sent, and its end and next packet-ready
        are queued, and its outcome is drawn when the end is dispatched; a
        battery edge is then settled by the queued handlers.
        """
        self.sync(now)
        if epoch != self._epoch:
            return  # stale: see `_epoch`
        plan = self.plan
        now = self._run_stretch(now, plan)
        if now + plan.airtime_ns > self.slot_end_ns:
            return  # too little slot is left
        self.transmit_packet(now)
        self.engine.schedule_at(now + plan.airtime_ns, self.name, EventKind.TRANSMIT_END)
        self._pending_packet = self.engine.schedule_at(
            now + plan.interval_ns, self.name, EventKind.APP_PACKET_READY, payload=epoch)

    def _run_stretch(self, now: SimTime, plan: ActionPlan) -> SimTime:
        """Run the bursts from `now` on that fit in the slot, whose end and
        next packet-ready fall before the horizon, and whose burst and idle
        gap draw no battery edge, and through each world tick that
        `_crosses` accepts. Return the start of the first burst left.

        Each run of bursts is settled in closed form: it draws its bursts
        and idle gaps in one product, which differs from the queued
        handlers' burst-by-burst sum by rounding only, and logs one
        `tx_intervals` record. Only when the whole run would pass the
        buffer's edge does `fitting_bursts` count the bursts that keep it
        off. A burst through a tick settles around the dispatched tick in
        the queued handlers' float order (a tick up to the burst's end
        samples it in flight, a later one draws the idle gap) and logs one
        record of its own. It draws every outcome it sent in one
        `count_below` call as it returns, which owes the draws of certain
        ones: nothing reads the node's stream before, since `_crosses`
        leaves it no battery edge at a tick, so no policy evaluates it and
        its plan stays. The node idles around each burst, and its interface
        starts and ends it at IDLE, so the phase and interface state stay.
        """
        if self.interfaces is not InterfaceState.IDLE:  # raises in `transmit_packet`
            return now
        airtime, interval = plan.airtime_ns, plan.interval_ns
        fits = self.slot_end_ns - airtime
        burst_j = self._joules(plan.tx_current_ma, airtime)
        step = burst_j + self._joules(self.scenario.idle_current_ma, interval - airtime)
        engine, buffer, log = self.engine, self.buffer, self.metrics.bursts
        remaining, consumed = buffer.remaining_j, buffer.consumed_j
        floor = buffer.threshold_j if remaining >= buffer.threshold_j else 0.0  # stays on its side
        sent = 0
        while True:
            tick, after = engine.head()
            horizon = after if tick is None else tick.fire_at
            if sent and horizon <= now:  # the tick just crossed queued an event in the window
                raise RuntimeError(f"{self.name}: the tick queued an event before {now} ns")
            last = min(fits, horizon - 1 - interval)
            bursts = (last - now) // interval + 1 if last >= now else 0
            if remaining - bursts * step < floor:
                bursts = fitting_bursts(remaining, floor, step, bursts)
            if bursts:
                drawn = bursts * step
                remaining, consumed = remaining - drawn, consumed + drawn
                log.fromlist([now, interval, airtime, bursts])
                now += bursts * interval
                sent += bursts
            if now > fits or not self._crosses(tick, after, now, interval, remaining, step):
                break
            # The burst's start, end and next ready, and the tick, in time order.
            at, end = tick.fire_at, now + airtime
            log.fromlist([now, 0, airtime, 1])
            if at <= end:  # the tick samples the burst in flight
                self.transmit_packet(now)
                self._phase_since = now
            else:  # the burst, then the tick draws the idle up to it
                remaining, consumed = remaining - burst_j, consumed + burst_j
                self._phase_since = end
            buffer.remaining_j, buffer.consumed_j = remaining, consumed
            engine.dispatch_head()
            remaining, consumed = buffer.remaining_j, buffer.consumed_j
            if at <= end:  # the rest of the burst, 0 J on its end
                rest_j = self._joules(plan.tx_current_ma, end - at)
                remaining, consumed = remaining - rest_j, consumed + rest_j
                self.interfaces = fsm_dispatch(self.interfaces, EventKind.TRANSMIT_END)
                self._phase_ma, self._phase_since = self.scenario.idle_current_ma, end
            now += interval  # the idle up to the next ready
            rest_j = self._joules(self._phase_ma, now - self._phase_since)
            remaining, consumed = remaining - rest_j, consumed + rest_j
            sent += 1
        if sent:
            buffer.remaining_j, buffer.consumed_j = remaining, consumed
            delivered = self.rng.count_below(sent, plan.success_prob)
            self.metrics.bytes_delivered += delivered * self.scenario.packet_bytes
            self.metrics.packets_lost += sent - delivered
            self._phase_since = now
            engine.run_inline(now, 2 * sent)  # each burst's end and next ready
        return now

    def _crosses(self, tick: SimEvent | None, after: SimTime, now: SimTime,
                 interval: SimTime, remaining: float, window_j: float) -> bool:
        """Whether the burst at `now` runs through `tick`, the queue's head,
        with nothing queued before `after`. A stretch stops only at its
        slot's end (the caller's test), at a battery edge within reach (of
        the window's draw, when the threshold, or below it 0 J, lies within
        twice `window_j` below `remaining` J, far more than the rounding of
        its pieces adds; or, below it, of the tick's harvest up to it), at a
        head that is not the 1 Hz world tick, at a spacing of 1 s or more,
        or at another event queued by the next packet-ready (the tick
        requeues 1 s on, past a window under 1 s). The tick falls after the
        burst's start and at or before its next packet-ready (a tick there
        draws the whole idle gap and fires before the packet-ready queued
        after it); `tick_nodes` settles it as it settles a queued tick."""
        if tick is None or tick.kind is not EventKind.HARVEST_TICK:
            return False
        at, ready, threshold = tick.fire_at, now + interval, self.buffer.threshold_j
        return (interval < NS_PER_SEC and now < at <= ready and after > ready
                and (threshold <= remaining - 2 * window_j if remaining >= threshold else
                     0.0 <= remaining - 2 * window_j and remaining + tick.payload < threshold))

    def transmit_packet(self, now: SimTime) -> None:
        """Drive one burst through the interface FSM and start its draw;
        success is drawn against the link's packet success probability when
        the burst ends. Only IDLE interfaces may start one."""
        plan = self.plan
        if self.interfaces is not InterfaceState.IDLE:
            raise ProtocolViolation(
                f"{self.name}: {plan.modality.value} TX from {self.interfaces.value}")
        self.interfaces = fsm_dispatch(self.interfaces, EventKind.TRANSMIT_START, plan.modality)
        self._tx_started_ns = now
        self._phase_ma = plan.tx_current_ma

    def on_transmit_end(self, now: SimTime) -> None:
        self.sync(now)
        if not self.tx_in_flight:
            return  # a battery-low edge already lost the burst
        started = self._tx_started_ns
        self.metrics.bursts.fromlist([started, 0, now - started, 1])
        sent_on = self.plans[self.plan.mode, _TX_MODALITY[self.interfaces]]
        self.interfaces = fsm_dispatch(self.interfaces, EventKind.TRANSMIT_END)
        if self.rng.count_below(1, sent_on.success_prob):
            self.metrics.bytes_delivered += self.scenario.packet_bytes
        else:
            self.metrics.packets_lost += 1
        # A live packet-ready means the node kept its slot and mode since the
        # burst started and streams on; else a change waited for this end.
        if self._pending_packet.payload == self._epoch:
            self._phase_ma = self.scenario.idle_current_ma
        else:
            self._reconcile(now)

    # -- reconfiguration -----------------------------------------------------

    def apply_action(self, plan: ActionPlan, now: SimTime) -> None:
        """Take `plan`, a row of `self.plans`, at `now`, to which the policy
        settled the node; a policy's sleep row is the node's own modality's."""
        if plan is self.plan:
            return
        if plan.mode is Mode.SLEEP:
            self.metrics.sleep_entries += 1
        elif plan.modality is not self.plan.modality:
            self.metrics.modality_switches += 1
        self.plan = plan
        self._reconcile(now)

    def _reconcile(self, now: SimTime) -> None:
        """Settle the node after a change of its slot, mode or battery state.
        In its slot and not in sleep mode, it is transmit-eligible and
        streams, after waking through a chain of the duty cycle if asleep:
        the wake-up burst, then in performance mode the peripheral cycle.
        Otherwise it parks, unless a burst is in flight, whose end settles it."""
        self._epoch += 1
        if self.in_slot and self.plan.mode is not Mode.SLEEP:
            if self._eligible_since is None:
                self._eligible_since = now
            if self.awake:
                self._start_streaming(now)
            else:
                self.interfaces = fsm_dispatch(self.interfaces, EventKind.WAKE_SIGNAL)
                cycle = self._duty_cycle
                self._run_chain(now, cycle if self.plan.mode is Mode.PERFORMANCE else cycle[:1])
        else:
            self._close_eligible(now)
            if not self.tx_in_flight:
                self.park()

    # -- event dispatch ---------------------------------------------------------

    def finalize_accounting(self, end: SimTime) -> None:
        """Settle energy and close any open transmit-eligible segment."""
        self.sync(end)
        self._close_eligible(end)

    def handle(self, engine: Engine, event) -> None:
        kind = event.kind
        if kind is EventKind.APP_PACKET_READY:
            self.on_packet_ready(engine.now, event.payload)
        elif kind is EventKind.TRANSMIT_END:
            self.on_transmit_end(engine.now)
        else:  # pragma: no cover - no other kinds are addressed to nodes
            raise RuntimeError(f"unexpected event {kind} for {self.name}")


def tick_nodes(nodes: list[SimNode], now: SimTime, harvest_j: float) -> None:
    """The 1 Hz world tick: settle each node to `now`, store the tick's
    `harvest_j`, evaluate on a battery-charged edge, and sample.

    Every node of a run shares one `Scenario`, so the supply voltage, the
    buffer's threshold and its capacity are read once per tick. A draw and
    harvest that keep the buffer on its side of the threshold (at or above
    it, or in [0 J, threshold)) and do not clamp run inline, in
    `_joules`'s, `consume`'s and `harvest`'s float order (a 0 ns draw is
    0.0 J, a no-op), with no call per node; any other goes through `sync`,
    `harvest` and `sample`, the one path that can clamp. Below the
    threshold, which is at most the capacity, a harvest that stays below it
    cannot clamp; above it, one that does not clamp stays finite. The other
    world passes settle through `sync`, the same draw without the harvest.
    Ticking through `sync`, with the harvest still inline, executes 14 %
    more instructions on `tests/data/fleet64.cfg` (CPython 3.12.1), so the
    tick keeps its fused draw and harvest.
    """
    first = nodes[0]
    voltage = first.scenario.supply_voltage
    threshold, capacity = first.buffer.threshold_j, first.buffer.capacity_j
    for node in nodes:
        buffer = node.buffer
        remaining = buffer.remaining_j
        drawn = node._phase_ma * 1e-3 * voltage * (now - node._phase_since) / NS_PER_SEC
        after = remaining - drawn
        filled = after + harvest_j
        if (threshold <= after and filled <= capacity if remaining >= threshold
                else 0.0 <= after and filled < threshold):
            node._phase_since = now
            buffer.consumed_j += drawn
            buffer.remaining_j = filled
            buffer.harvested_j += harvest_j
            metrics = node.metrics
            metrics.values.fromlist([filled, buffer.consumed_j])
            metrics.codes.append(node.plan.tails[node.interfaces])
        else:
            node.sync(now)
            if node.harvest(harvest_j) is EventKind.BATTERY_CHARGED:
                node.evaluate_cb([node], now)
            node.sample()


def start_peripheral_cycles(nodes: list[SimNode], now: SimTime) -> None:
    """The world's periodic sensing/display/localization (only without
    inter-transmission sleep): each node idling outside its slot in
    performance mode starts the cycle's chain, which stops one still running."""
    chain, idle, performance = nodes[0]._duty_cycle[1:], InterfaceState.IDLE, Mode.PERFORMANCE
    # Every node settles, chain or not; moving that changes trace rounding (ROADMAP item 7).
    for node in nodes:
        node.sync(now)
        if node.interfaces is idle and not node.in_slot and node.plan.mode is performance:
            node._epoch += 1
            node._run_chain(now, chain)


def end_chain_steps(members: list[tuple[SimNode, int]], now: SimTime) -> None:
    """End the chain step of each `(node, epoch)` member of a `CHAIN_STEPS`
    batch, in the order they were queued: settle the node, and advance its
    chain unless a reconfiguration bumped the epoch since."""
    for node, epoch in members:
        node.sync(now)
        if epoch == node._epoch:
            node._advance_chain(now)
