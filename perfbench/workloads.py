"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file once per timed repetition, once per set-up
probe and once per traced run, so that per-layer call counts and
``ru_maxrss`` describe exactly one run (both drift or accumulate when
a workload is repeated inside one process)::

    PYTHONPATH=src python3 perfbench/workloads.py \\
        --workload fleet --seed 0 --mode plain

``--mode setup`` stops after set-up, ``plain`` times the workload and
``traced`` times it under cProfile, aggregates the profile by
``src/repro/<pkg>`` package and reads the modelled-work counters.
The last line of standard output is one JSON object.

The workloads call only public entry points of the program:

* ``fleet``: :func:`repro.bench.fleet.run_fleet_study` on the
  ``fleet-32`` spec, one simulated day, no observatory;
* ``replay``: ``make_testbed`` -> ``populate_volume`` -> ``warm_cache``
  -> :meth:`repro.trace.replay.TraceReplayer.run` for the Figure 12
  segments over Ethernet and Modem, A = 600 s, lambda = 1 s,
  write-disconnected;
* ``ckpt-obs``: :func:`repro.ckpt.runner.run_checkpointed` on
  ``fleet-32``, one 43,200 s day, in-process, streamed, into a
  temporary store inside the checkout.
"""

import time

T0 = time.perf_counter()            # set-up includes the repro imports

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = ("fleet", "replay", "ckpt-obs")
SCALES = ("full", "small")

#: Layers are the ``src/repro/<pkg>`` packages that do work in some
#: workload; frames of C functions go to ``builtin`` and everything else
#: (the standard library, top-level repro modules, this file) to
#: ``other``.
LAYERS = ("sim", "net", "rpc2", "venus", "server", "core", "trace", "fs",
          "obs", "ckpt", "fleetd", "faults", "bench", "spec", "analysis",
          "builtin", "other")

#: Modelled-work counts: pure functions of the simulated schedule.
COUNTS = ("sim.events", "sim.sim_s", "net.packets_sent", "net.bytes_sent",
          "net.packets_lost", "venus.operations", "venus.fetches",
          "venus.misses", "cml.appended_bytes", "cml.optimized_bytes",
          "cml.reintegrated_bytes", "validation.attempts",
          "ckpt.store_bytes", "ckpt.swap_outs")

FLEET_SCENARIO = "fleet-32"
REPLAY_SEGMENTS = ("purcell", "holst", "messiaen", "concord")
REPLAY_WINDOW = 600.0
REPLAY_THINK = 1.0
REPLAY_WARM = 600.0
CKPT_DAY_SECONDS = 43_200.0

#: Reduced-scale variants, used by the benchmark's own tests.
SMALL_FLEET_DAYS = 0.05
SMALL_REPLAY_CUTOFF = 300.0         # trace seconds kept per segment
SMALL_CKPT_DAY_SECONDS = 1_350.0


def digest(payload):
    """sha256 of a JSON payload; floats keep every digit via repr."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Recorder:
    """Keeps every instance of the given classes built while active.

    Wraps ``__init__`` for the duration of a ``with`` block, the way
    ``repro.perf.runner.KernelTally`` does for simulators, so objects
    that a public entry point builds and drops can be read afterwards
    without changing any return type.
    """

    def __init__(self, *classes):
        self.classes = classes
        self.instances = {cls: [] for cls in classes}
        self._originals = {}

    def __enter__(self):
        for cls in self.classes:
            original = cls.__init__
            seen = self.instances[cls]

            def recording_init(obj, *args, _original=original, _seen=seen,
                               **kwargs):
                _original(obj, *args, **kwargs)
                _seen.append(obj)

            self._originals[cls] = original
            cls.__init__ = recording_init
        return self

    def __exit__(self, *exc_info):
        for cls, original in self._originals.items():
            cls.__init__ = original
        return False

    def __getitem__(self, cls):
        return self.instances[cls]


# ----------------------------------------------------------------------
# workloads: setup(seed, scale, tmp) -> state; run(state) -> Outcome


@dataclasses.dataclass
class Outcome:
    """What one timed run produced."""

    events: int
    sim_s: float
    units: dict                      # unit name -> fingerprint payload
    problems: dict                   # unit name -> why it failed
    notes: dict = dataclasses.field(default_factory=dict)
    counts: dict = dataclasses.field(default_factory=dict)


def fleet_setup(seed, scale, tmp):
    from repro.bench.fleet import run_fleet_study
    from repro.spec.catalog import get
    from repro.spec.compile import fleet_config
    from repro.spec.seeds import scenario_seed

    days = SMALL_FLEET_DAYS if scale == "small" else None
    config = fleet_config(get(FLEET_SCENARIO),
                          master=scenario_seed("perf", FLEET_SCENARIO, seed,
                                               bits=32),
                          days=days)
    return run_fleet_study, config


def fleet_run(state):
    from repro.sim import Simulator

    run_fleet_study, config = state
    with Recorder(Simulator) as sims:
        desktops, laptops = run_fleet_study(config)
    (sim,) = sims[Simulator]
    reports = [[r.name, r.kind, r.missing_pct, r.attempts, r.success_pct,
                r.objs_per_success] for r in desktops + laptops]
    problems = {}
    expected = config.desktops + config.laptops
    if len(reports) != expected:
        problems["fleet"] = "%d client reports, expected %d" % (
            len(reports), expected)
    payload = {"events": sim.dispatched, "sim_s": sim.now,
               "clients": reports}
    return Outcome(events=sim.dispatched, sim_s=sim.now,
                   units={"fleet": payload}, problems=problems)


def replay_setup(seed, scale, tmp):
    from repro.trace.generate import generate_segment
    from repro.trace.segments import SEGMENT_SPECS

    segments = []
    for name in REPLAY_SEGMENTS:
        spec = SEGMENT_SPECS[name]
        segment = generate_segment(
            dataclasses.replace(spec, seed=spec.seed + 1000 * seed))
        if scale == "small":
            segment = dataclasses.replace(segment, records=[
                record for record in segment.records
                if record.time < SMALL_REPLAY_CUTOFF])
        segments.append(segment)
    return seed, segments


def _replay_cell(testbed, replayer, segment):
    connected = yield from testbed.venus.connect()
    if not connected:
        raise RuntimeError("client failed to reach the server")
    report = yield from replayer.run(segment)
    return report


def replay_run(state):
    """Each cell builds its testbed and replays, one cell at a time, as
    ``repro.bench.replay.run_replay_grid`` does; building is ~1% of the
    cell's time and stays in the timed region."""
    from repro.bench.common import make_testbed, populate_volume, warm_cache
    from repro.net import ETHERNET, MODEM
    from repro.trace.replay import TraceReplayer
    from repro.venus import VenusConfig

    seed, segments = state
    units, problems, notes = {}, {}, {}
    events, sim_s = 0, 0.0
    for segment in segments:
        for network in (ETHERNET, MODEM):
            name = "%s/%s" % (segment.name, network.name)
            config = VenusConfig(aging_window=REPLAY_WINDOW,
                                 force_write_disconnected=True)
            try:
                testbed = make_testbed(network, venus_config=config,
                                       seed=seed)
                volume = populate_volume(testbed.server, segment.spec.mount,
                                         segment.tree)
                warm_cache(testbed.venus, testbed.server, volume)
                replayer = TraceReplayer(testbed.venus,
                                         think_threshold=REPLAY_THINK,
                                         warm_seconds=REPLAY_WARM)
                report = testbed.run(_replay_cell(testbed, replayer,
                                                  segment))
            except Exception:
                problems[name] = traceback.format_exc(limit=3)
                continue
            sim = testbed.sim
            events += sim.dispatched
            sim_s += sim.now
            if report.errors:
                # A replayed operation that fails is modelled behaviour
                # the replayer counts, not a crash: it is part of the
                # unit's fingerprint and is reported, not failed.
                notes[name] = "%d replayed operations raised" \
                    % report.errors
            units[name] = {
                "events": sim.dispatched, "sim_s": sim.now,
                "elapsed": report.elapsed, "misses": report.misses,
                "errors": report.errors,
                "begin_cml_kb": report.begin_cml_bytes / 1024.0,
                "end_cml_kb": report.end_cml_bytes / 1024.0,
                "shipped_kb": report.shipped_bytes / 1024.0,
                "optimized_kb": report.optimized_bytes / 1024.0}
    return Outcome(events=events, sim_s=sim_s, units=units,
                   problems=problems, notes=notes)


def ckpt_setup(seed, scale, tmp):
    from repro.ckpt.driver import CkptOptions
    from repro.ckpt.runner import run_checkpointed

    day = SMALL_CKPT_DAY_SECONDS if scale == "small" else CKPT_DAY_SECONDS
    return run_checkpointed, seed, CkptOptions(day_seconds=day), tmp


def ckpt_run(state):
    from repro.ckpt.store import CheckpointStore

    run_checkpointed, seed, options, tmp = state
    out = os.path.join(tmp, "store")
    report = run_checkpointed(FLEET_SCENARIO, seed=seed, days=1, out=out,
                              workers=0, options=options, stream=True)
    store = CheckpointStore(out)
    units, problems = {}, {}
    swap_outs = 0
    for shard in report.shards:
        for record in store.shard(shard["index"]).read_days():
            name = "s%02d/d%d" % (shard["index"], record["day"])
            swap_outs += record["swap_out"]
            units[name] = {
                "fleet_digest": report.fleet_digest,
                "digest": record["digest"],
                "dispatched": record["dispatched"],
                "sim_seconds": record["sim_seconds"],
                "swap_out": record["swap_out"]}
            if not report.fleet_digest:
                problems[name] = "no fleet digest"
    store_bytes = sum(os.path.getsize(os.path.join(path, name))
                      for path, _dirs, names in os.walk(out)
                      for name in names)
    return Outcome(events=report.dispatched, sim_s=report.sim_seconds,
                   units=units, problems=problems,
                   counts={"ckpt.store_bytes": store_bytes,
                           "ckpt.swap_outs": swap_outs})


SETUP = {"fleet": fleet_setup, "replay": replay_setup,
         "ckpt-obs": ckpt_setup}
RUN = {"fleet": fleet_run, "replay": replay_run, "ckpt-obs": ckpt_run}


# ----------------------------------------------------------------------
# traced-run aggregation


def layer_table(profile, events):
    """Self seconds and calls per layer from a finished cProfile."""
    import repro

    package_dir = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep
    layer_of = {}
    table = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) \
            in pstats.Stats(profile).stats.items():
        layer = layer_of.get(filename)
        if layer is None:
            if filename == "~":
                layer = "builtin"
            else:
                path = os.path.realpath(filename)
                package = (path[len(package_dir):].split(os.sep)[0]
                           if path.startswith(package_dir) else "")
                layer = package if package in LAYERS else "other"
            layer_of[filename] = layer
        table[layer][0] += self_s
        table[layer][1] += calls
    metrics = {}
    for layer, (self_s, calls) in table.items():
        metrics[layer + ".self_s"] = self_s
        metrics[layer + ".calls"] = calls
        metrics[layer + ".calls_per_event"] = calls / events if events else 0.0
    return metrics


def modelled_counts(outcome, recorder):
    """The schedule's work, read from public stats after the run."""
    from repro.net.link import Link
    from repro.venus import Venus

    counts = dict.fromkeys(COUNTS, 0)
    counts["sim.events"] = outcome.events
    counts["sim.sim_s"] = outcome.sim_s
    for link in recorder[Link]:
        for direction in (link.forward, link.backward):
            counts["net.packets_sent"] += direction.stats.packets_sent
            counts["net.bytes_sent"] += direction.stats.bytes_sent
            counts["net.packets_lost"] += direction.stats.packets_lost
    for venus in recorder[Venus]:
        stats = venus.stats
        counts["venus.operations"] += stats.operations
        counts["venus.fetches"] += stats.fetches
        counts["venus.misses"] += (stats.misses_transparent
                                   + stats.misses_denied
                                   + stats.misses_disconnected)
        cml = venus.cml.stats
        counts["cml.appended_bytes"] += cml.appended_bytes
        counts["cml.optimized_bytes"] += cml.optimized_bytes
        counts["cml.reintegrated_bytes"] += cml.reintegrated_bytes
        counts["validation.attempts"] += venus.validator.stats.attempts
    counts.update(outcome.counts)
    return counts


def provenance():
    """Default scheduler and pooling kinds, for the record only."""
    found = {}
    for key, module, function in (("queue", "repro.sim.queue",
                                   "default_kind"),
                                  ("pooling", "repro.sim.pool",
                                   "default_pooling")):
        try:
            found[key] = str(getattr(__import__(module, fromlist=["_"]),
                                     function)())
        except (ImportError, AttributeError):
            found[key] = "n/a"
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        default="plain")
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--tmp", default=None,
                        help="directory for the ckpt-obs store")
    args = parser.parse_args(argv)

    from repro.net.link import Link
    from repro.venus import Venus

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        classes = (Link, Venus) if args.mode == "traced" else ()
        with Recorder(*classes) as recorder:
            state = SETUP[args.workload](args.seed, args.scale, tmp)
            setup_s = time.perf_counter() - T0
            result = {"setup_s": setup_s, "provenance": provenance()}
            if args.mode != "setup":
                profile = cProfile.Profile() if args.mode == "traced" \
                    else None
                start, cpu_start = time.perf_counter(), time.process_time()
                if profile is not None:
                    profile.enable()
                outcome = RUN[args.workload](state)
                if profile is not None:
                    profile.disable()
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu_start
                result.update(
                    wall_s=wall, cpu_s=cpu, events=outcome.events,
                    sim_s=outcome.sim_s,
                    peak_rss_mb=resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    units={name: digest(payload)
                           for name, payload in outcome.units.items()},
                    problems=outcome.problems, notes=outcome.notes)
                if profile is not None:
                    result["layers"] = layer_table(profile, outcome.events)
                    result["counts"] = modelled_counts(outcome, recorder)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
