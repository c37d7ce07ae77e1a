"""Pinned explanation of the one replay error in seed 13, purcell/Modem.

The Figure 12 replay of the purcell segment drawn with seed 13 over
the modem reports exactly one error: the UNLINK of
``/coda/usr/trace/d11/tmp00002`` raises FileNotFoundError.  This test
pins the chain of modelled events that produces it, so the error reads
as what it is — the patience model of Figure 7 refusing a fetch after
a disconnection — and any change to that chain is noticed:

1. at t ~ 1033.5 s an RPC dies, the client goes write-disconnected ->
   emulating and drops every callback (``drop_all_callbacks``);
2. the probe reconnects it at t ~ 1098.2 s (emulating ->
   write-disconnected), but the volume stamp no longer validates, so
   the volume root ``/coda/usr/trace`` stays uncovered until object
   revalidation reaches it;
3. its refetch is estimated at ~9.5 s over 9.6 Kb/s, beyond the 3 s
   patience of a priority-0 object, so every operation under the root
   raises CacheMissError from t ~ 1100.55 s — including the WRITE that
   would have created ``d11/tmp00002`` at t ~ 1100.85 s;
4. the trace's UNLINK of that never-created file at t ~ 1109.85 s
   therefore raises FileNotFoundError.

The misses do not stop there.  Four subdirectories whose server
versions moved on (through this client's own reintegrated updates;
it is the only client) are found stale by object revalidation, which
keeps their fresh status and drops their data; their ~9.8 s
refetches are refused for the rest of the cell.
"""

import dataclasses

import pytest

from repro.bench.common import make_testbed, populate_volume, warm_cache
from repro.net import MODEM
from repro.obs import Observatory
from repro.trace import TraceReplayer, generate_segment
from repro.trace.segments import SEGMENT_SPECS
from repro.venus import VenusConfig

SEED = 13
ROOT = "/coda/usr/trace"
VICTIM = ROOT + "/d11/tmp00002"


class RecordingReplayer(TraceReplayer):
    """Notes ``(sim time, op, path, exception name)`` of failed ops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = []

    def _issue(self, record):
        try:
            yield from super()._issue(record)
        except Exception as exc:
            self.failures.append((self.sim.now, record.op.value,
                                  record.path, type(exc).__name__))
            raise


@pytest.fixture(scope="module")
def cell():
    """The benchmark's replay cell (A = 600 s, lambda = 1 s, forced
    write-disconnected, 600 s warming), observed."""
    spec = SEGMENT_SPECS["purcell"]
    segment = generate_segment(
        dataclasses.replace(spec, seed=spec.seed + 1000 * SEED))
    obs = Observatory()
    testbed = make_testbed(
        MODEM, seed=SEED, observatory=obs,
        venus_config=VenusConfig(aging_window=600.0,
                                 force_write_disconnected=True))
    volume = populate_volume(testbed.server, segment.spec.mount,
                             segment.tree)
    warm_cache(testbed.venus, testbed.server, volume)
    venus = testbed.venus
    drops = []
    plain_drop = venus.cache.drop_all_callbacks

    def drop_all_callbacks():
        drops.append(testbed.sim.now)
        return plain_drop()

    venus.cache.drop_all_callbacks = drop_all_callbacks
    replayer = RecordingReplayer(venus, think_threshold=1.0,
                                 warm_seconds=600.0)

    def run():
        reached = yield from venus.connect()
        assert reached
        return (yield from replayer.run(segment))

    report = testbed.run(run())
    events = list(obs.trace)
    return report, replayer.failures, drops, events, venus


def test_the_one_error_is_the_unlink_of_the_never_written_file(cell):
    report, failures, _drops, _events, _venus = cell
    errors = [f for f in failures if f[3] != "CacheMissError"]
    assert report.errors == 1
    assert len(errors) == 1
    when, op, path, kind = errors[0]
    assert (op, path, kind) == ("unlink", VICTIM, "FileNotFoundError")
    assert when == pytest.approx(1109.85, abs=0.01)
    # The only earlier operation on that path: the WRITE that missed.
    earlier = [f for f in failures if f[2] == VICTIM and f[0] < when]
    assert len(earlier) == 1
    assert earlier[0][1:] == ("write", VICTIM, "CacheMissError")
    assert earlier[0][0] == pytest.approx(1100.85, abs=0.01)


def test_a_disconnection_drops_the_callbacks_first(cell):
    _report, _failures, drops, events, _venus = cell
    transitions = [(e.time, e.fields["frm"], e.fields["to"])
                   for e in events if e.kind == "state_transition"]
    assert [t[1:] for t in transitions] == [
        ("emulating", "write_disconnected"),
        ("write_disconnected", "emulating"),
        ("emulating", "write_disconnected")]
    down, back = transitions[1][0], transitions[2][0]
    assert down == pytest.approx(1033.49, abs=0.01)
    assert back == pytest.approx(1098.23, abs=0.01)
    assert drops == [down]


def test_the_root_refetch_is_refused_by_patience(cell):
    report, failures, _drops, events, venus = cell
    misses = [e for e in events if e.kind == "cache_miss"]
    assert all(e.fields["reason"] == "patience" for e in misses)
    first = misses[0]
    assert first.fields["path"] == ROOT
    assert first.time == pytest.approx(1100.55, abs=0.01)
    record = venus.misses.peek()[0]
    assert record.path == ROOT and record.priority == 0
    assert record.estimated_seconds == pytest.approx(9.5, abs=0.1)
    assert record.estimated_seconds > venus.patience.threshold(0) == 3.0
    # Every miss the replayer counted is one of these refusals; none
    # happens before the reconnection.
    assert report.misses == len(misses) == 7646
    missed = [f for f in failures if f[3] == "CacheMissError"]
    assert len(missed) == report.misses
    assert min(f[0] for f in missed) == first.time
    window = [f for f in missed if 1100.65 <= f[0] <= 1100.85]
    assert len(window) == 387


def test_the_misses_outlast_the_root(cell):
    """After the root is revalidated (by ~1107 s) the refusals move to
    four directories whose data was dropped, for the rest of the cell."""
    _report, _failures, _drops, events, _venus = cell
    late = {e.fields["path"] for e in events
            if e.kind == "cache_miss" and e.time > 1110.0}
    assert late == {ROOT + "/d01", ROOT + "/d03", ROOT + "/d05",
                    ROOT + "/d08"}
    root_misses = [e.time for e in events
                   if e.kind == "cache_miss" and e.fields["path"] == ROOT]
    assert max(root_misses) < 1110.0
