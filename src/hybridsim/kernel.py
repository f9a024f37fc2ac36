"""Deterministic discrete-event engine with an integer-nanosecond clock.

All timing in the simulator is kept in integer nanoseconds so that the
durations used throughout (45 ms connection intervals, 2.14 ms connection
events, 68 ms optical chunks, 25 s poll slots) are exactly representable
and long runs accumulate no floating-point drift.

`events_executed` counts model events: those the queue dispatches, each
member of a batch the queue dispatches as one event (see
`Engine.schedule_batched`), and those a handler runs inline before the
queue's horizon (see `Engine.head`), so the count does not depend on which
of these ran an event.

A periodic event may be one `SimEvent` that its handler re-arms
(`Engine.rearm`), as the run's 1 Hz world tick does 1 s on.
"""

from __future__ import annotations

import heapq
import random
from enum import Enum

NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

# SimTime is an integer count of nanoseconds since the start of the run.
SimTime = int


def seconds(t: float) -> SimTime:
    """Convert seconds to integer nanoseconds (rounded to nearest)."""
    return round(t * NS_PER_SEC)


def millis(t: float) -> SimTime:
    return round(t * NS_PER_MS)


class EventKind(Enum):
    TRANSMIT_START = "TransmitStart"
    TRANSMIT_END = "TransmitEnd"
    SLEEP_SIGNAL = "SleepSignal"
    WAKE_SIGNAL = "WakeSignal"
    BATTERY_LOW = "BatteryLow"
    BATTERY_CHARGED = "BatteryCharged"
    POLL_TICK = "PollTick"
    OPTIMIZER_TICK = "OptimizerTick"
    HARVEST_TICK = "HarvestTick"
    APP_PACKET_READY = "AppPacketReady"
    PERIPHERAL_TICK = "PeripheralTick"
    CHAIN_STEP = "ChainStep"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


class SimEvent:
    """A scheduled event, and the handle `schedule` returns to cancel it.
    `batched`: the payload lists the members of a batch."""

    __slots__ = ("fire_at", "target", "kind", "payload", "cancelled", "fired", "batched")

    def __init__(self, fire_at: SimTime, target: str, kind: EventKind,
                 payload: object = None, batched: bool = False):
        self.fire_at = fire_at
        self.target = target
        self.kind = kind
        self.payload = payload
        self.cancelled = False
        self.fired = False
        self.batched = batched


class ScheduleInPastError(RuntimeError):
    """An event was scheduled before the current clock; always a logic bug."""


_SKIP_CHUNK = 65_536  # draws skipped per `getrandbits` call: a 512 KiB integer


class RngStream:
    """Seeded per-node random stream, reproducible across runs and platforms.

    Same (seed, stream_id) always yields the same draw sequence; the stdlib
    Mersenne Twister is stable across CPython versions and platforms.

    The draws of a certain outcome (`count_below` at `p` of 0 or 1) are owed
    rather than made: the generator skips them only when it is next read,
    by a draw or by `getstate`, so a run whose outcomes are all certain and
    that draws nothing else never skips them. While nothing is owed,
    `normal` is the generator's own bound method; while a debt is open it
    is a wrapper that pays it first.
    """

    def __init__(self, seed: int, stream_id: int):
        self._rng = random.Random((seed << 20) ^ (stream_id * 0x9E3779B1))
        self._owed = 0  # draws in [0, 1) owed to the generator
        self._settle()

    def _settle(self) -> None:
        """Skip the draws owed, and draw from the generator directly again.

        `random()` takes two 32-bit Mersenne Twister words, and
        `getrandbits(k)` takes `ceil(k / 32)`, so `getrandbits(64 * n)`
        skips `n` draws in C. Chunks of at most `_SKIP_CHUNK` draws bound
        the integer it builds."""
        skip = self._rng.getrandbits
        for left in range(self._owed, 0, -_SKIP_CHUNK):
            skip(64 * min(left, _SKIP_CHUNK))
        self._owed = 0
        # A normal draw `normal(mu, sigma)`: each policy evaluation under SNR
        # jitter makes two, so this is the generator's own bound method
        # rather than a wrapper around it.
        self.normal = self._rng.gauss

    def _settled_normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        self._settle()
        return self.normal(mu, sigma)

    def getstate(self) -> tuple:
        """The generator's state with every owed draw made."""
        if self._owed:
            self._settle()
        return self._rng.getstate()

    def count_below(self, n: int, p: float) -> int:
        """How many of `n` draws in [0, 1) fall below `p`, leaving the
        stream where those `n` draws would: a stretch of bursts draws all
        of its packet outcomes in one call, and a single burst its one.

        A draw lies in [0, 1), so at `p >= 1` every one falls below and at
        `p <= 0` none does; the `n` draws are then owed, and the next read
        of the generator skips them all at once (`_settle`).
        """
        if p >= 1.0 or p <= 0.0:
            if n and not self._owed:
                self.normal = self._settled_normal
            self._owed += n
            return n if p >= 1.0 else 0
        if self._owed:
            self._settle()
        draw = self._rng.random
        below = 0
        for _ in range(n):
            below += draw() < p
        return below


class Engine:
    """Single-threaded event queue with FIFO tie-breaking at equal times.

    Handlers are registered per target id; periodic behaviours reschedule
    themselves. A run owns all of its state, so independent runs (seed or
    parameter sweeps) can execute concurrently without sharing anything.
    """

    def __init__(self):
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, int, SimEvent]] = []
        self._seq = 0
        self._end: SimTime = -1  # end of the current run_until; -1 outside one
        self._handlers: dict[str, object] = {}
        self.events_executed = 0
        self._batch: SimEvent | None = None  # the last batch `schedule_batched` queued
        self._batch_seq = -1  # `_seq` just after it was queued

    def register(self, target: str, handler) -> None:
        """handler is a callable (engine, event) -> None."""
        self._handlers[target] = handler

    def schedule(self, event: SimEvent) -> SimEvent:
        if event.fire_at < self.now:
            raise ScheduleInPastError(
                f"event {event.kind.value} at t={event.fire_at} ns scheduled "
                f"while clock is {self.now} ns"
            )
        heapq.heappush(self._heap, (event.fire_at, self._seq, event))
        self._seq += 1
        return event

    def schedule_at(self, fire_at: SimTime, target: str, kind: EventKind,
                    payload: object = None) -> SimEvent:
        return self.schedule(SimEvent(fire_at, target, kind, payload))

    def rearm(self, event: SimEvent, fire_at: SimTime, payload: object = None) -> None:
        """Queue `event`, which has fired, again at `fire_at` with `payload`,
        ranked as an event queued now: a periodic event needs no new one."""
        if event.cancelled or not event.fired:
            state = "cancelled" if event.cancelled else "still queued"
            raise RuntimeError(f"only a fired event re-arms: this {event.kind.value} is {state}")
        event.fired, event.fire_at, event.payload = False, fire_at, payload
        self.schedule(event)

    # -- batched events ------------------------------------------------------
    #
    # Many events of one kind for one target at one instant (each parked
    # node's step of the peripheral cycle, which the world starts for every
    # node at once) cost one queue entry. The queue dispatches the batch as
    # one event whose payload lists the members, counts each member in
    # `events_executed`, and the target's handler runs them in order. A batch
    # grows only while it is the last entry queued and has not fired, so its
    # members would have had consecutive FIFO sequence numbers at one time
    # and been dispatched back to back, with nothing in between; the batch
    # takes the first member's place. So an event a member queues runs after
    # every member, and `head` gives the same horizon and the same time for
    # the entry after it. A batch is never cancelled, and no member may read
    # `head` or dispatch the head (nor start a stretch, which does both): the
    # members after it would have been the head.

    def schedule_batched(self, fire_at: SimTime, target: str, kind: EventKind,
                         item: object) -> None:
        """Queue `item` for `target` at `fire_at`: in the last entry queued if
        that is a batch for the same time, target and kind that has not
        fired, else as the first member of a new batch."""
        batch = self._batch
        if (self._seq == self._batch_seq and batch.fire_at == fire_at
                and batch.target == target and batch.kind is kind and not batch.fired):
            batch.payload.append(item)
        else:
            self._batch = self.schedule(SimEvent(fire_at, target, kind, [item], batched=True))
            self._batch_seq = self._seq

    # -- inline events -------------------------------------------------------
    #
    # A handler may run its own next events itself while they fall before the
    # horizon, and count them with `run_inline`: one call may count many, as a
    # streaming node's stretch of bursts counts two per burst. It may also
    # dispatch the head in its place (`dispatch_head`) and run on, as a stretch
    # does through the 1 Hz world tick. Where it stops (a stretch: at a slot
    # end, a battery edge or any other head), it queues its next events with
    # `schedule_at`; since nothing else was scheduled meanwhile, the queue
    # ranks them as if they had been scheduled when the handler first knew.

    def head(self) -> tuple[SimEvent | None, SimTime]:
        """The head of the queue if it fires in the current `run_until`, else
        None, and the time of the entry after it (a cancelled one too; the
        head's children hold it) or else `end + 1`. The horizon, the earliest
        time anything but the running handler's own events can happen, is the
        head's time, or else the second value: 0 outside a run."""
        stop, heap = self._end + 1, self._heap
        if not heap or heap[0][0] >= stop:
            return None, stop
        after, size = stop, len(heap)
        if size > 1 and heap[1][0] < after:
            after = heap[1][0]
        if size > 2 and heap[2][0] < after:
            after = heap[2][0]
        return heap[0][2], after

    def run_inline(self, at: SimTime, events: int = 1) -> None:
        """Advance the clock to `at`, the time of the last of the `events`
        events a handler ran itself, and count them."""
        self.now = at
        self.events_executed += events

    def cancel(self, event: SimEvent) -> bool:
        """Cancel a pending event; False if it was already cancelled or fired."""
        if event.cancelled or event.fired:
            return False
        event.cancelled = True
        return True

    def run_until(self, end: SimTime) -> None:
        self._end = end
        while self._heap and self._heap[0][0] <= end:
            self.dispatch_head()
        self._end = -1
        self.now = max(self.now, end)

    def dispatch_head(self) -> None:
        """Pop the head of the queue and, unless it was cancelled, advance the
        clock to it, count it (a batch: each member) and run its handler:
        `run_until`'s dispatch. An unregistered target raises `KeyError`."""
        fire_at, _, event = heapq.heappop(self._heap)
        if event.cancelled:
            return
        event.fired = True
        self.now = fire_at
        self.events_executed += len(event.payload) if event.batched else 1
        self._handlers[event.target](self, event)
