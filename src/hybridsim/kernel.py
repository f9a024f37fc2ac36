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
    """

    def __init__(self, seed: int, stream_id: int):
        self._rng = random.Random((seed << 20) ^ (stream_id * 0x9E3779B1))
        # A draw in [0, 1), and a normal draw `normal(mu, sigma)`. A queued
        # burst makes one, and each policy evaluation under SNR jitter two,
        # so these are the generator's own bound methods rather than
        # wrappers around them.
        self.uniform = self._rng.random
        self.normal = self._rng.gauss

    def count_below(self, n: int, p: float) -> int:
        """How many of `n` `uniform()` draws fall below `p`, leaving the
        generator where those `n` calls would: a stretch of bursts draws all
        of its packet outcomes in one call.

        A draw lies in [0, 1), so at `p >= 1` every one falls below and at
        `p <= 0` none does; the generator then skips the draws in C.
        `random()` takes two 32-bit Mersenne Twister words, and
        `getrandbits(k)` takes `ceil(k / 32)`, so `getrandbits(64 * n)`
        skips `n` draws. Chunks of at most `_SKIP_CHUNK` draws bound the
        integer it builds.
        """
        if p >= 1.0 or p <= 0.0:
            skip = self._rng.getrandbits
            for left in range(n, 0, -_SKIP_CHUNK):
                skip(64 * min(left, _SKIP_CHUNK))
            return n if p >= 1.0 else 0
        draw = self.uniform
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
        after = stop
        for entry in heap[1:3]:
            if entry[0] < after:
                after = entry[0]
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
