"""``Simulator.run(until=Event)`` on the inlined dispatch loops.

An event-stopped run dispatches through the same per-queue-kind loops
as a deadline run (a deadline of infinity plus a stop check), not
through :meth:`Simulator.step`.  These tests pin its contract on both
built-in queue kinds with pooling on and off, against the ``step()``
reference taken by installing an instance-level ``step`` override —
the path the dispatch probes use.
"""

import pytest

from repro.obs import Observatory
from repro.sim import Simulator
from repro.sim.events import _RECYCLED

GRID = [(queue, pooling) for queue in ("heap", "calendar")
        for pooling in ("off", "on")]


def make_sim(queue, pooling, reference=False):
    sim = Simulator(queue=queue, pooling=pooling)
    if reference:
        # An instance-level override sends run() down the plain loop
        # that calls step() once per dispatch.
        sim.step = sim.step
    return sim


def busy_world(sim, log):
    """Same-instant chains, pooled sleeps, a shared resource of sorts
    (one process waiting on another) and work left queued past the stop.
    Returns the stop event: a process that finishes mid-run."""

    def ticker(tag, period, count):
        for _ in range(count):
            yield sim.sleep(period)
            log.append((sim.now, tag))

    def child():
        yield sim.timeout(1.5)
        log.append((sim.now, "child"))
        return 5

    def main():
        value = yield sim.process(child())
        for _ in range(3):
            yield sim.sleep(0.0)            # same-instant resumptions
            log.append((sim.now, "main"))
        yield sim.timeout(2.25)
        return value * 2

    sim.process(ticker("a", 0.5, 40))
    sim.process(ticker("b", 0.75, 30))
    sim.process(ticker("c", 10.0, 3))       # still queued at the stop
    return sim.process(main())


@pytest.mark.parametrize("queue,pooling", GRID)
def test_event_stop_matches_step_reference(queue, pooling):
    outcomes = []
    for reference in (False, True):
        sim = make_sim(queue, pooling, reference)
        log = []
        result = sim.run(until=busy_world(sim, log))
        first = (result, sim.now, sim.dispatched, list(log))
        # The queue is left exactly where the reference leaves it.
        sim.run(until=100.0)
        outcomes.append((first, sim.now, sim.dispatched, log))
    assert outcomes[0] == outcomes[1]
    (result, now, dispatched, _log), _, _, _ = outcomes[0]
    assert (result, now) == (10, 3.75)
    assert dispatched > 0


@pytest.mark.parametrize("queue,pooling", GRID)
def test_event_stop_does_not_call_step(queue, pooling, monkeypatch):
    sim = make_sim(queue, pooling)

    def forbidden(self):
        raise AssertionError("event-stopped run went through step()")

    monkeypatch.setattr(Simulator, "step", forbidden)
    log = []
    assert sim.run(until=busy_world(sim, log)) == 10


@pytest.mark.parametrize("queue,pooling", GRID)
def test_exact_dispatched_counts(queue, pooling):
    sim = make_sim(queue, pooling)

    def proc():
        yield sim.timeout(1.0)
        return "done"

    later = sim.timeout(5.0)
    # Bootstrap stub, the timeout, and the process's own completion:
    # three dispatches, and the later timeout stays queued.
    assert sim.run(until=sim.process(proc())) == "done"
    assert sim.dispatched == 3
    assert sim.now == 1.0
    assert not later.processed
    assert sim.run(until=later) is None
    assert sim.dispatched == 4
    assert sim.now == 5.0


@pytest.mark.parametrize("queue,pooling", GRID)
def test_already_processed_stop_returns_at_once(queue, pooling):
    sim = make_sim(queue, pooling)

    def proc():
        yield sim.timeout(1.0)
        return 42

    done = sim.process(proc())
    sim.timeout(3.0)
    assert sim.run(until=done) == 42
    dispatched, now = sim.dispatched, sim.now
    assert sim.run(until=done) == 42
    assert (sim.dispatched, sim.now) == (dispatched, now)
    assert sim.peek() == 3.0            # nothing else was dispatched


@pytest.mark.parametrize("queue,pooling", GRID)
def test_failing_stop_event_is_reraised(queue, pooling):
    sim = make_sim(queue, pooling)

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    doomed = sim.process(proc())
    sim.timeout(2.0)
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=doomed)
    assert sim.dispatched == 3
    assert sim.now == 1.0
    # Already processed and failed: re-raised again, nothing dispatched.
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=doomed)
    assert sim.dispatched == 3
    # The failure was observed by the caller, so it is not unhandled.
    assert sim.run() is None
    assert sim.now == 2.0


@pytest.mark.parametrize("reference", (False, True))
@pytest.mark.parametrize("queue,pooling", GRID)
def test_drained_queue_raises_ran_dry(queue, pooling, reference):
    sim = make_sim(queue, pooling, reference)
    sim.timeout(1.0)
    sim.timeout(2.0)
    never = sim.event()
    with pytest.raises(RuntimeError, match="ran dry"):
        sim.run(until=never)
    assert sim.dispatched == 2
    assert sim.now == 2.0


@pytest.mark.parametrize("queue", ("heap", "calendar"))
def test_pooled_stop_event_survives_dispatch(queue):
    sim = make_sim(queue, "on")
    pool = sim._pool
    stop = sim.sleep(1.0)
    neighbour = sim.sleep(1.0)              # same instant, dispatched later
    assert stop._recycle and neighbour._recycle
    assert sim.run(until=stop) is None
    assert stop.processed
    assert stop._value is not _RECYCLED
    assert stop not in pool._free_timeouts
    assert not neighbour.processed          # the stop ended the run
    sim.run()
    assert neighbour._value is _RECYCLED    # ordinary transients still are


class DepthRecorder:
    """Installs a recording ``set`` on the kernel's queue-depth gauge."""

    def __init__(self, obs):
        self.values = []
        gauge = obs.metrics.gauge("sim.queue_depth")
        plain_set = gauge.set

        def recording_set(value):
            self.values.append(value)
            return plain_set(value)

        gauge.set = recording_set


@pytest.mark.parametrize("queue,pooling", GRID)
def test_obs_run_emits_the_step_reference_metrics(queue, pooling):
    runs = []
    for reference in (False, True):
        sim = make_sim(queue, pooling, reference)
        obs = Observatory(sim)
        depths = DepthRecorder(obs)
        log = []
        result = sim.run(until=busy_world(sim, log))
        dispatched = obs.metrics.value("sim.events_dispatched")
        rows = obs.metrics.rows()
        runs.append((result, log, sim.dispatched, dispatched,
                     depths.values, rows))
    assert runs[0] == runs[1]
    _result, _log, total, dispatched, depths, _rows = runs[0]
    assert dispatched == total == len(depths)
