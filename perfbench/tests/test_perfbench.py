"""Self-tests of the benchmark, at reduced scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each case starts the benchmark's own entry points in fresh
interpreters, exactly as ``run.py`` does.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fleet", "replay", "ckpt-obs")


def worker(workload, mode, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for key in ("REPRO_QUEUE", "REPRO_POOL", "REPRO_FAST"):
        env.pop(key, None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workloads.py"),
         "--workload", workload, "--seed", "0", "--mode", mode,
         "--scale", "small", "--tmp", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py")]
        + list(args), capture_output=True, text=True, cwd=root,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def pins():
    with open(os.path.join(BENCH, "fingerprints.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_matches_pinned_fingerprint(workload, tmp_path):
    result = worker(workload, "plain", tmp_path)
    assert result["problems"] == {}
    assert result["units"] == pins()["small"][workload]["0"]


def test_both_seeds_are_pinned_at_full_scale():
    full = pins()["full"]
    for workload in WORKLOADS:
        assert set(full[workload]) >= {"0", "1"}
        assert full[workload]["0"] != full[workload]["1"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_calls_repeat_across_fresh_processes(workload, tmp_path):
    first = worker(workload, "traced", tmp_path)
    second = worker(workload, "traced", tmp_path)
    calls = [name for name in first["layers"] if name.endswith(".calls")]
    assert calls
    assert ({name: first["layers"][name] for name in calls}
            == {name: second["layers"][name] for name in calls})
    assert first["counts"] == second["counts"]
    assert first["units"] == second["units"]


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind):
    code, result = bench("--workload", "fleet", "--seed", "0",
                         "--seconds", "0", "--trace", trace,
                         "--scale", "small")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == declared(kind)


def copy_bench(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    return tmp_path


def test_refuses_to_run_without_the_program(tmp_path):
    code, result = bench("--workload", "fleet", "--seed", "0",
                         "--seconds", "1", "--trace", "0",
                         root=str(copy_bench(tmp_path)))
    assert code != 0
    assert result is None


def test_fingerprint_mismatch_fails_the_run(tmp_path):
    root = copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), str(root / "src"))
    path = root / "perfbench" / "fingerprints.json"
    doc = json.loads(path.read_text())
    doc["small"]["fleet"]["0"]["fleet"] = "0" * 64
    path.write_text(json.dumps(doc))
    code, result = bench("--workload", "fleet", "--seed", "0",
                         "--seconds", "0", "--trace", "0",
                         "--scale", "small", root=str(root))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
