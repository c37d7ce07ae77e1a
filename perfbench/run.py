"""The repository benchmark: one workload, one run, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 0 --seconds 50 --trace 0

Every repetition runs in a fresh interpreter (``workloads.py``) with
the garbage collector on and no ``REPRO_*`` tuning variables, so the
numbers describe the program as users run it.  ``--trace 0`` runs
set-up probes and then timed repetitions that fill ``--seconds`` (at
least two) and reports medians of the end-to-end metrics; ``--trace 1``
runs one plain and one cProfile-traced repetition and reports the
per-layer table.  Each unit of work (a replay cell, the fleet run, a
checkpoint shard-day) is checked against the fingerprint pinned in
``fingerprints.json`` for the seed, or, for a seed with no pin,
against the first repetition of the run.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any unit failed.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKER = os.path.join(HERE, "workloads.py")

sys.path.insert(0, HERE)
from workloads import COUNTS, LAYERS, SCALES, WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("events_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"), ("ok_frac", "ratio"))
PER_LAYER = (tuple((layer + suffix, unit) for layer in LAYERS
                   for suffix, unit in ((".self_s", "s"), (".calls", "count"),
                                        (".calls_per_event", "1/event")))
             + tuple((name, "s" if name == "sim.sim_s" else "count")
                     for name in COUNTS)
             + (("trace_overhead", "ratio"),))

#: Variables that select between implementations of one behaviour.
#: The benchmark measures the defaults, so it drops them if inherited.
TUNING_ENV = ("REPRO_QUEUE", "REPRO_POOL", "REPRO_FAST")
SETUP_PROBES = 2
MIN_REPS = 2
#: Every run must end within 180 s, children included.
RUN_BUDGET_S = 170.0


class WorkerFailed(Exception):
    """A worker process exited non-zero, timed out or printed no result."""


def worker_env():
    env = {key: value for key, value in os.environ.items()
           if key not in TUNING_ENV}
    env["PYTHONPATH"] = (SOURCE + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else SOURCE)
    return env


def run_worker(args, mode, deadline):
    """One fresh-interpreter repetition; returns its result dict."""
    command = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode,
               "--scale", args.scale, "--tmp", args.tmp]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=worker_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("%s %s timed out" % (args.workload, mode)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s %s exited %d:\n%s" % (
            args.workload, mode, proc.returncode, proc.stderr[-4000:]))
    return json.loads(lines[-1])


def pinned_units(args):
    with open(FINGERPRINTS) as handle:
        pins = json.load(handle)
    return pins.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))


class Checker:
    """Counts units attempted and failed across a run's repetitions."""

    def __init__(self, expected):
        self.expected = expected     # None until a seed's first result
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, result):
        units = result["units"]
        if self.expected is None:
            self.expected = dict(units)
        self.attempted += len(self.expected)
        for name, want in sorted(self.expected.items()):
            got = units.get(name)
            why = result["problems"].get(name)
            if why is None and got != want:
                why = "fingerprint %s, expected %s" % (got, want)
            if why is not None:
                self.failed += 1
                self.notes.append("FAILED %s: %s" % (name, why))
        for name, note in sorted(result["notes"].items()):
            self.notes.append("note %s: %s" % (name, note))
        for name in sorted(set(units) - set(self.expected)):
            self.attempted += 1
            self.failed += 1
            self.notes.append("FAILED %s: unexpected unit" % name)

    def crashed(self, error):
        units = len(self.expected) if self.expected else 1
        self.attempted += units
        self.failed += units
        self.notes.append("FAILED %s" % error)


def measure_plain(args, checker, deadline):
    """Set-up probes, then timed repetitions for ``--seconds``."""
    setups, reps = [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, "setup", deadline)["setup_s"])
        # Start another repetition only if, at the mean length so far, it
        # ends less than half a repetition past --seconds, so that a run
        # ends near --seconds rather than up to a whole repetition past it.
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS \
                    and elapsed + elapsed / (2 * len(reps)) > args.seconds:
                break
            result = run_worker(args, "plain", deadline)
            checker.check(result)
            setups.append(result["setup_s"])
            reps.append(result)
    except WorkerFailed as error:
        checker.crashed(error)
    provenance = reps[0]["provenance"] if reps else {}
    if not reps:
        return {}, provenance
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "events_per_s": statistics.median(r["events"] / r["wall_s"]
                                          for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
        "repetitions": len(reps),
        "reps": reps,
    }
    return values, provenance


def measure_traced(args, checker, deadline):
    """One plain and one traced repetition; the per-layer table."""
    try:
        plain = run_worker(args, "plain", deadline)
        checker.check(plain)
        traced = run_worker(args, "traced", deadline)
        checker.check(traced)
    except WorkerFailed as error:
        checker.crashed(error)
        return {}, {}
    values = dict(traced["layers"])
    values.update(traced["counts"])
    values["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    return values, traced["provenance"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Run from the root of a checkout of the repository.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'small' is a reduced run for self-tests")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's fingerprints as the "
                        "expected ones instead of checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SOURCE, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    args.tmp = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(args.tmp, exist_ok=True)

    try:
        if args.pin:
            return pin(args, deadline)
        checker = Checker(pinned_units(args))
        measure = measure_traced if args.trace else measure_plain
        values, provenance = measure(args, checker, deadline)
    finally:
        try:
            os.rmdir(args.tmp)
        except OSError:
            pass        # not empty: another run is using it
    names = PER_LAYER if args.trace else END_TO_END
    if not args.trace and checker.attempted:
        values["ok_frac"] = 1.0 - checker.failed / checker.attempted
    correct = checker.failed == 0 and all(name in values
                                          for name, _unit in names)
    print("perfbench %s seed %d trace %d: queue=%s pooling=%s "
          "repetitions=%s" % (args.workload, args.seed, args.trace,
                              provenance.get("queue", "?"),
                              provenance.get("pooling", "?"),
                              values.get("repetitions", 1)))
    for note in sorted(set(checker.notes)):
        print(note)
    for index, rep in enumerate(values.get("reps", ())):
        print("  repetition %d: setup_s %.3f wall_s %.3f cpu_s %.3f"
              % (index, rep["setup_s"], rep["wall_s"], rep["cpu_s"]))
    for name, unit in names:
        if name in values:
            print("  %-28s %16.6f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names if name in values}}))
    return 0 if correct else 1


def pin(args, deadline):
    """Write one repetition's unit fingerprints into fingerprints.json."""
    result = run_worker(args, "plain", deadline)
    if result["problems"]:
        print("perfbench: refusing to pin failing units: %r"
              % result["problems"], file=sys.stderr)
        return 1
    with open(FINGERPRINTS) as handle:
        pins = json.load(handle)
    pins.setdefault(args.scale, {}).setdefault(args.workload, {})[
        str(args.seed)] = result["units"]
    with open(FINGERPRINTS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %s %s seed %d: %d units" % (
        args.scale, args.workload, args.seed, len(result["units"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
