"""Tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test run; each
test finishes in seconds.
"""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _counters(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s"}


def test_counters_repeat_across_traced_runs():
    for workload in workloads.WORKLOADS:
        first = run.run_workload(workload, 3, 0, True, size="smoke")
        second = run.run_workload(workload, 3, 0, True, size="smoke")
        assert first["correct"] and second["correct"], (
            first["problems"] + second["problems"])
        assert _counters(first["metrics"]) == _counters(second["metrics"])
        assert set(first["metrics"]) == set(second["metrics"])


def test_known_shapes():
    toy = run.run_workload("verify-toy", 5, 0, True, size="smoke")
    for op in toy["operations"]:
        # one top tuple: chains for bb-recursion, the boundary identity and
        # the weighted comparison
        assert op["layers"]["bounding_chain.build_chains_calls"] == 3
    wdvv = run.run_workload("wdvv-toy", 5, 0, True, size="smoke")
    assert wdvv["metrics"]["lattice.classes_enumerated"]["value"] == 0
    per_rung = {op["name"]: op["layers"]["wdvv.relation_instances"]
                for op in wdvv["operations"]}
    assert per_rung == {"area2-cap3": 18, "area4-cap4": 127}


def test_tracer_restores_every_original():
    import opengw.cli
    from opengw import bounding_chain, lattice, wdvv

    tracer = Tracer()
    tracer.install()
    patched = list(tracer.patches)
    assert patched
    assert all(
        (vars(owner)[attr] if isinstance(owner, type)
         else getattr(owner, attr)) is wrapper
        for owner, attr, _original, wrapper in patched
    )
    # aliases made by `from x import f` are wrapped with their original
    assert opengw.cli.build_chains is bounding_chain.build_chains
    tracer.recording = True
    data = os.path.join(ROOT, "src", "opengw", "data")
    loaded = workloads.load_inputs({"input_sets": [
        {k: os.path.join(data, v) for k, v in workloads.TOY.items()}]})
    op = {"kind": "wdvv", "name": "area2-cap3", "inputs": 0,
          "area_bound": 2, "cap": 3}
    workloads.run_op(op, loaded)
    assert tracer.metrics()["wdvv.relation_instances"] == 18
    assert tracer.remove() == []
    for owner, attr, original, _wrapper in patched:
        current = (vars(owner)[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)
    assert "substitute" in vars(wdvv.LinForm)
    assert lattice.Target.degeneration_classes.__name__ == "degeneration_classes"
    assert not hasattr(lattice.Target.degeneration_classes, "__wrapped__")


def test_artifact_digests_match_across_runs():
    for workload in ("verify-toy", "verify-synth", "wdvv-toy"):
        first = run.run_workload(workload, 7, 0, False, size="smoke")
        second = run.run_workload(workload, 7, 0, False, size="smoke")
        assert first["correct"] and second["correct"], (
            first["problems"] + second["problems"])
        assert first["input_sha256"] == second["input_sha256"]
        digests = [[op["artifact_sha256"] for op in r["operations"]]
                   for r in (first, second)]
        assert digests[0] == digests[1]
        assert all(len(d) == 1 for d in digests[0])


def test_seed_makes_the_synthetic_inputs(tmp_path):
    work = os.path.relpath(tmp_path, ROOT)
    a = workloads.prepare("verify-synth", 11, ROOT, os.path.join(work, "a"))
    b = workloads.prepare("verify-synth", 11, ROOT, os.path.join(work, "b"))
    c = workloads.prepare("verify-synth", 12, ROOT, os.path.join(work, "c"))
    assert a["input_sha256"] == b["input_sha256"]
    assert set(a["input_sha256"]) == set(c["input_sha256"])
    assert a["input_sha256"] != c["input_sha256"]


def test_smoke_run_finishes_in_seconds():
    start = time.monotonic()
    result = run.run_workload("verify-synth", 2, 0, False, size="smoke")
    assert time.monotonic() - start < 30
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"run_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sampler_samples_and_restores_the_alarm_handler():
    import signal

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    start_cpu = time.process_time()
    while time.perf_counter() - start < 0.2:
        speed.snippet()
    elapsed = time.perf_counter() - start
    elapsed_cpu = time.process_time() - start_cpu
    wall, cpu, normalised, rel_speed = sampler.stop(elapsed, elapsed_cpu)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0 < wall < elapsed
    assert 0 < cpu < elapsed_cpu
    assert normalised == cpu * rel_speed > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wdvv-toy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
