"""Event queue ordering, cancellation, and reproducibility."""

import pytest
from hypothesis import given, strategies as st

from hybridsim.actions import Mode, Modality
from hybridsim.energy import energy_between
from hybridsim.kernel import (Engine, EventKind, RngStream, ScheduleInPastError,
                              seconds)
from hybridsim.linklayer import InterfaceState
from hybridsim.runner import run
from hybridsim.scenario import Scenario


def _collect(engine):
    log = []
    engine.register("sink", lambda eng, ev: log.append((eng.now, ev.payload)))
    return log


def test_schedule_at_current_time_fires_first():
    engine = Engine()
    log = _collect(engine)
    engine.schedule_at(0, "sink", EventKind.POLL_TICK, payload="a")
    engine.schedule_at(5, "sink", EventKind.POLL_TICK, payload="b")
    engine.run_until(10)
    assert log == [(0, "a"), (5, "b")]


@pytest.mark.parametrize("enum", [Mode, Modality, EventKind, InterfaceState],
                         ids=lambda enum: enum.__name__)
def test_model_enums_hash_by_identity(enum):
    # The packet path keys dicts by these members; an identity hash is
    # computed in C where Enum's own hashes the member name in Python.
    assert "__hash__" not in enum.__members__
    assert all(hash(member) == object.__hash__(member) for member in enum)


def test_equal_times_execute_in_insertion_order():
    engine = Engine()
    log = _collect(engine)
    engine.schedule_at(5, "sink", EventKind.POLL_TICK, payload=1)
    engine.schedule_at(5, "sink", EventKind.POLL_TICK, payload=2)
    engine.run_until(5)
    assert [p for _, p in log] == [1, 2]


def test_schedule_in_past_is_an_error():
    engine = Engine()
    _collect(engine)
    engine.schedule_at(7, "sink", EventKind.POLL_TICK)
    engine.run_until(7)
    with pytest.raises(ScheduleInPastError):
        engine.schedule_at(3, "sink", EventKind.POLL_TICK)


def test_empty_queue_advances_clock():
    engine = Engine()
    engine.run_until(seconds(10))
    assert engine.events_executed == 0
    assert engine.now == seconds(10)


def test_single_event_executes():
    engine = Engine()
    log = _collect(engine)
    engine.schedule_at(seconds(5), "sink", EventKind.POLL_TICK)
    engine.run_until(seconds(10))
    assert engine.events_executed == 1
    assert log[0][0] == seconds(5)


def test_an_event_for_an_unregistered_target_raises():
    # A misspelt target must not lose its event without a word.
    engine = Engine()
    log = _collect(engine)
    engine.schedule_at(5, "nobody", EventKind.HARVEST_TICK)
    with pytest.raises(KeyError, match="nobody"):
        engine.run_until(10)
    assert log == []


def test_events_beyond_end_do_not_fire():
    engine = Engine()
    log = _collect(engine)
    engine.schedule_at(seconds(11), "sink", EventKind.POLL_TICK)
    engine.run_until(seconds(10))
    assert log == []
    assert engine.now == seconds(10)


def test_cancel_semantics():
    engine = Engine()
    log = _collect(engine)
    pending = engine.schedule_at(5, "sink", EventKind.POLL_TICK, payload="x")
    fired = engine.schedule_at(1, "sink", EventKind.POLL_TICK, payload="y")
    assert engine.cancel(pending) is True
    assert engine.cancel(pending) is False  # double cancel
    engine.run_until(10)
    assert engine.cancel(fired) is False  # already fired
    assert [p for _, p in log] == ["y"]


def test_self_rescheduling_stops_at_end():
    engine = Engine()
    ticks = []

    def periodic(eng, ev):
        ticks.append(eng.now)
        eng.schedule_at(eng.now + seconds(1), "tick", EventKind.HARVEST_TICK)

    engine.register("tick", periodic)
    engine.schedule_at(0, "tick", EventKind.HARVEST_TICK)
    engine.run_until(seconds(5))
    assert ticks == [seconds(i) for i in range(6)]
    assert engine.now == seconds(5)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_causality_timestamps_non_decreasing(times):
    engine = Engine()
    order = []
    engine.register("sink", lambda eng, ev: order.append(eng.now))
    for t in times:
        engine.schedule_at(t, "sink", EventKind.POLL_TICK)
    engine.run_until(1000)
    assert order == sorted(order)


def test_rng_stream_reproducible():
    a = RngStream(seed=42, stream_id=3)
    b = RngStream(seed=42, stream_id=3)
    assert [a.normal() for _ in range(10)] == [b.normal() for _ in range(10)]
    c = RngStream(seed=42, stream_id=4)
    assert a.normal() != c.normal()


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0])
@pytest.mark.parametrize("n", [1, 2, 33, 1000])
def test_count_below_moves_the_stream_as_the_draws_do(n, p):
    # A certain outcome, at a probability of 0 or 1, draws nothing; any
    # other makes its `n` draws. The largest draw, 1 - 2**-53, is not below
    # 1 - 2**-53, so that one draws each.
    counted, drawn = RngStream(seed=7, stream_id=2), RngStream(seed=7, stream_id=2)
    start, certain = drawn.getstate(), p in (0.0, 1.0)
    below = (n if p else 0) if certain else sum(drawn._rng.random() < p for _ in range(n))
    assert counted.count_below(n, p) == below
    assert counted.getstate() == drawn.getstate()
    assert (counted.getstate() == start) == certain


def test_count_below_of_no_draws_reads_nothing():
    stream = RngStream(seed=7, stream_id=2)
    start = stream.getstate()
    assert [stream.count_below(0, p) for p in (0.0, 0.5, 1.0)] == [0, 0, 0]
    assert stream.getstate() == start


_READS = {"outcome": lambda stream: stream.count_below(1, 0.6),
          "normal": lambda stream: stream.normal(0.5, 2.0),
          "count_below": lambda stream: stream.count_below(40, 0.5),
          "getstate": lambda stream: stream.getstate()}


@pytest.mark.parametrize("read", _READS)
@pytest.mark.parametrize("paired", [False, True], ids=["", "mid-gauss-pair"])
@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("n", [1_000, 65_536, 2 * 65_536 + 5])
def test_certain_outcomes_leave_the_next_read_as_it_was(n, p, paired, read):
    # However many certain outcomes a stream counts, in one call or split,
    # the next read, a draw or `getstate`, reads what a stream that counted
    # none reads. `gauss` draws a pair and keeps its second half for the
    # next call, so the certain outcomes may also fall between the halves.
    certain, untouched = RngStream(seed=7, stream_id=2), RngStream(seed=7, stream_id=2)
    if paired:
        assert certain.normal() == untouched.normal()
    assert certain.count_below(n - 1, p) + certain.count_below(1, p) == (n if p else 0)
    assert _READS[read](certain) == _READS[read](untouched)
    assert certain.getstate() == untouched.getstate()


def test_normal_is_the_generators_gauss_for_the_streams_whole_life():
    # `normal` is the generator's own bound method, with no check per draw,
    # whatever the stream counts or draws.
    stream = RngStream(seed=7, stream_id=2)
    gauss = stream._rng.gauss
    for n, p in [(0, 1.0), (3, 1.0), (3, 0.0), (3, 0.5)]:
        stream.count_below(n, p)
        assert stream.normal == gauss
    stream.normal()
    assert stream.normal == gauss


def test_horizon_is_the_queue_head_or_one_past_the_end():
    engine = Engine()
    seen = []

    def horizon(eng):
        head, after = eng.head()
        return after if head is None else head.fire_at

    engine.register("probe", lambda eng, ev: seen.append(horizon(eng)))
    assert horizon(engine) == 0  # outside a run nothing runs inline
    engine.schedule_at(3, "probe", EventKind.POLL_TICK)
    engine.schedule_at(8, "probe", EventKind.POLL_TICK)
    engine.run_until(10)
    assert seen == [8, 11]  # the head of the queue, then end + 1 once it is empty
    assert horizon(engine) == 0


def test_inline_events_are_counted():
    engine = Engine()
    clock = []

    def burst(eng, ev):
        for at in (eng.now + 1, eng.now + 2):
            eng.run_inline(at)
            clock.append(eng.now)

    engine.register("node", burst)
    engine.schedule_at(4, "node", EventKind.APP_PACKET_READY)
    engine.run_until(10)
    assert clock == [5, 6]
    assert engine.events_executed == 3


def test_run_inline_counts_every_event_it_runs():
    engine = Engine()
    engine.run_inline(3)
    engine.run_inline(7, 4)
    assert engine.now == 7 and engine.events_executed == 5


def test_head_of_an_empty_queue():
    engine = Engine()
    assert engine.head() == (None, 0)  # outside a run: nothing fires
    seen = []
    engine.register("probe", lambda eng, ev: seen.append(eng.head()))
    engine.schedule_at(2, "probe", EventKind.POLL_TICK)
    engine.run_until(9)
    assert seen == [(None, 10)]  # the queue is empty: end + 1
    later = engine.schedule_at(20, "probe", EventKind.POLL_TICK)
    seen.clear()
    engine.schedule_at(12, "probe", EventKind.POLL_TICK)
    engine.run_until(15)
    assert seen == [(None, 16)]  # past the end of the run is not a head
    assert engine.head() == (None, 0) and not later.fired


def _head_seen_at_1(times, end, cancel=()):
    """The `head()` a handler sees at t = 1 with events queued at `times`
    (the ones at indices in `cancel` cancelled), and those events."""
    engine = Engine()
    heads = []
    engine.register("probe", lambda eng, ev: heads.append(eng.head()))
    engine.register("sink", lambda eng, ev: None)
    engine.schedule_at(1, "probe", EventKind.POLL_TICK)
    events = [engine.schedule_at(t, "sink", EventKind.HARVEST_TICK) for t in times]
    for i in cancel:
        engine.cancel(events[i])
    engine.run_until(end)
    return heads, events


@pytest.mark.parametrize("times, cancel, end, expected", [
    ((4, 6, 9), (1,), 10, 6),  # a cancelled entry still bounds the time after the head
    ((4, 4, 8), (), 20, 4),  # equal times: the one queued first is the head, the next at once
    ((4, 30), (), 20, 21),  # nothing else fires in the run: end + 1
])
def test_head_and_the_time_after_it(times, cancel, end, expected):
    heads, events = _head_seen_at_1(times, end, cancel)
    assert heads == [(events[0], expected)]


def test_dispatch_head_from_inside_a_handler():
    engine = Engine()
    log = []

    def node(eng, ev):
        log.append(("node", eng.now))
        if ev.payload == "stretch":
            eng.run_inline(3, 2)
            head, _ = eng.head()
            assert head.payload == "a"
            eng.dispatch_head()  # runs "a" now, in its place in the queue
            log.append(("back", eng.now, eng.events_executed))
            assert eng.head() == (later, 12)

    engine.register("node", node)
    engine.register("world", lambda eng, ev: log.append((ev.payload, eng.now)))
    engine.schedule_at(1, "node", EventKind.APP_PACKET_READY, payload="stretch")
    engine.schedule_at(5, "world", EventKind.HARVEST_TICK, payload="a")
    later = engine.schedule_at(5, "world", EventKind.HARVEST_TICK, payload="b")
    engine.schedule_at(12, "world", EventKind.HARVEST_TICK, payload="c")
    engine.run_until(20)
    # The dispatch counts one event and sets the clock to the head's time;
    # "b", queued after "a" at the same time, still runs after it.
    assert log == [("node", 1), ("a", 5), ("back", 5, 4), ("b", 5), ("c", 12)]
    assert engine.events_executed == 1 + 2 + 1 + 1 + 1 and engine.now == 20


def _batches(engine):
    """Register a `batch` target that logs each dispatched batch as
    `(now, members)`, and return the log."""
    log = []
    engine.register("batch", lambda eng, ev: log.append((eng.now, list(ev.payload))))
    return log


def test_items_queued_back_to_back_at_one_time_share_one_event():
    engine = Engine()
    log = _batches(engine)
    for item in "abc":
        engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, item)
    engine.run_until(10)
    assert log == [(5, ["a", "b", "c"])]


@pytest.mark.parametrize("entry, at, target, kind", [
    pytest.param(True, 5, "batch", EventKind.PERIPHERAL_TICK, id="entry-between"),
    pytest.param(False, 6, "batch", EventKind.PERIPHERAL_TICK, id="another-time"),
    pytest.param(False, 5, "batch2", EventKind.PERIPHERAL_TICK, id="another-target"),
    pytest.param(False, 5, "batch", EventKind.HARVEST_TICK, id="another-kind"),
])
def test_an_entry_queued_between_or_another_time_splits_a_batch(entry, at, target, kind):
    engine = Engine()
    log = []
    for name in ("batch", "batch2"):
        engine.register(name, lambda eng, ev: log.append((eng.now, list(ev.payload))))
    engine.register("other", lambda eng, ev: None)
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "a")
    if entry:
        engine.schedule_at(9, "other", EventKind.POLL_TICK)
    engine.schedule_batched(at, target, kind, "b")
    engine.schedule_batched(at, target, kind, "c")  # joins b's batch
    engine.run_until(10)
    assert log == [(5, ["a"]), (at, ["b", "c"])]


def test_batch_members_keep_fifo_order_around_other_entries():
    engine = Engine()
    order = []
    engine.register("batch", lambda eng, ev: order.extend(ev.payload))
    engine.register("other", lambda eng, ev: order.append(ev.payload))
    engine.schedule_at(5, "other", EventKind.POLL_TICK, payload="first")
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "a")
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "b")
    engine.schedule_at(5, "other", EventKind.POLL_TICK, payload="between")
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "c")
    engine.schedule_at(4, "other", EventKind.POLL_TICK, payload="earlier")
    engine.run_until(10)
    assert order == ["earlier", "first", "a", "b", "between", "c"]


def test_an_item_queued_by_a_running_batch_starts_a_new_one():
    # A member that queues another member for the batch's own instant does
    # not grow the batch that is running: the new one runs after it.
    engine = Engine()
    log = []

    def handler(eng, ev):
        log.append((eng.now, list(ev.payload), eng.events_executed))
        if ev.payload == ["a", "b"]:
            eng.schedule_batched(eng.now, "batch", EventKind.PERIPHERAL_TICK, "c")

    engine.register("batch", handler)
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "a")
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "b")
    engine.run_until(10)
    assert log == [(5, ["a", "b"], 2), (5, ["c"], 3)]


def test_dispatch_counts_one_event_per_member():
    engine = Engine()
    _batches(engine)
    engine.register("sink", lambda eng, ev: None)
    for item in range(4):
        engine.schedule_batched(3, "batch", EventKind.PERIPHERAL_TICK, item)
    engine.schedule_at(4, "sink", EventKind.POLL_TICK)
    engine.schedule_batched(5, "batch", EventKind.PERIPHERAL_TICK, "last")
    engine.run_until(10)
    assert engine.events_executed == 4 + 1 + 1


def test_a_re_armed_event_ranks_as_one_queued_when_it_re_arms():
    # A periodic event re-armed by its handler takes a new place in the
    # queue: an event queued for t before the re-arm at t - 10 runs before
    # it, and one queued after runs after, as if the handler had queued a
    # new event in its place.
    engine = Engine()
    log = []

    def tick(eng, ev):
        log.append((ev.payload, eng.now))
        if eng.now < 20:
            eng.schedule_at(eng.now + 10, "sink", EventKind.POLL_TICK, payload="before")
            eng.rearm(ev, eng.now + 10, payload=f"tick{eng.now + 10}")
            eng.schedule_at(eng.now + 10, "sink", EventKind.POLL_TICK, payload="after")

    engine.register("tick", tick)
    engine.register("sink", lambda eng, ev: log.append((ev.payload, eng.now)))
    engine.schedule_at(20, "sink", EventKind.POLL_TICK, payload="queued first")
    first = engine.schedule_at(10, "tick", EventKind.HARVEST_TICK, payload="tick10")
    engine.run_until(30)
    assert log == [("tick10", 10), ("queued first", 20), ("before", 20), ("tick20", 20),
                   ("after", 20)]
    assert first.fired and first.fire_at == 20 and engine.events_executed == 5


def test_only_a_fired_event_re_arms():
    engine = Engine()
    engine.register("sink", lambda eng, ev: None)
    pending = engine.schedule_at(5, "sink", EventKind.HARVEST_TICK)
    with pytest.raises(RuntimeError, match="HarvestTick is still queued"):
        engine.rearm(pending, 6)
    engine.run_until(5)
    engine.rearm(pending, 6)
    with pytest.raises(RuntimeError, match="HarvestTick is still queued"):
        engine.rearm(pending, 7)  # re-armed, not fired again
    engine.cancel(pending)
    engine.run_until(10)
    with pytest.raises(RuntimeError, match="HarvestTick is cancelled"):
        engine.rearm(pending, 11)
    assert engine.events_executed == 1


def test_a_run_re_arms_one_event_for_every_1_hz_tick(monkeypatch):
    # Every tick of a run is its one `SimEvent`, re-armed each whole second
    # with that second's lump.
    ticks, schedule = [], Engine.schedule

    def spied(engine, event):
        if event.kind is EventKind.HARVEST_TICK:
            ticks.append((event, event.fire_at, event.payload))
        return schedule(engine, event)

    monkeypatch.setattr(Engine, "schedule", spied)
    scenario = Scenario(duration_s=12.5, init_delay_s=1.0, node_count=2,
                        harvest_profile=((0.0, 0.01), (3.5, 0.02)))
    run(scenario)
    lumps = [energy_between(scenario.harvest_segments(), t - 1.0, float(t)) for t in range(1, 14)]
    assert [(at, lump) for _, at, lump in ticks] == [
        (seconds(t), lumps[t - 1]) for t in range(1, 14)]
    assert all(event is ticks[0][0] for event, _, _ in ticks)
