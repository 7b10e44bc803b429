"""The opengw benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-toy --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Inputs are made from `--seed` (see workloads.py).  Each pass over
the workload's operations runs in a fresh single-threaded child process
(child.py); passes repeat until `--seconds` have gone by.

With `--trace 0` the end-to-end metrics are printed: `run_s` (median CPU
time of a pass), `peak_rss_mb` (median `ru_maxrss` of the pass processes)
and `setup_s` (median wall time from starting a set-up-only child to its
first operation being ready).  Both times are normalised to a reference
speed of the machine, measured beside them (speed.py); the raw times are
in the full record.
With `--trace 1` passes alternate between traced and untraced, and the
per-layer metrics of the traced passes are printed, with the tracing
overhead.  The last line of standard output is one JSON object; a fuller
record, with input hashes and the machine's state, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PER_PASS = 2  # set-up-only children before each untraced pass
SETUP_MAX = 40  # set-up samples; the time passes leave is filled with more
RUN_LIMIT_S = 170  # a run must end within 180 s, children included


def _commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root):
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "opengw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _machine():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _median(values):
    return statistics.median(values) if values else None


def _run_child(manifest_path, mode, result_path, deadline):
    """Run child.py once; returns (result dict or None, error text, spawn
    time).  A child that outlives the run's deadline is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    if os.path.exists(result_path):
        os.remove(result_path)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, manifest_path, mode, result_path],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None, "%s child killed at the run's time limit" % mode, spawned
    if proc.returncode != 0:
        return None, "%s child exited %d: %s" % (
            mode, proc.returncode, proc.stderr.decode(errors="replace")[-2000:]
        ), spawned
    with open(result_path) as fh:
        result = json.load(fh)
    if result["program"] != os.path.join(ROOT, "src", "opengw"):
        return None, "imported opengw from %s, not from this checkout" % (
            result["program"],), spawned
    return result, None, spawned


def _setup_sample(manifest_path, result_path, deadline):
    """(raw, normalised) set-up time of one set-up-only child, or the
    error; the machine's speed is read just before and just after it."""
    before = speed.rate()
    res, err, spawned = _run_child(manifest_path, "setup", result_path,
                                   deadline)
    if err:
        return None, err
    after = speed.rate()
    raw = res["ready"] - spawned
    return (raw, raw * speed.REFERENCE_S * (before + after) / 2), None


def run_workload(workload, seed, seconds, trace, size="full"):
    """Run the workload for about `seconds`; returns the full result record.

    A new pass starts only while it is expected to end within `seconds`
    (after the first pass, or the first traced/untraced pair).  Untraced,
    the time the passes leave is filled with set-up-only children, so a
    run takes about `seconds` whatever the speed of the machine."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work_rel = os.path.join("perfbench", "work",
                            "%s-%d-%d" % (workload, seed, os.getpid()))
    work = os.path.join(ROOT, work_rel)
    machine_before = _machine()
    errors = []
    setup = []  # (raw, normalised)
    passes = []
    try:
        manifest = workloads.prepare(workload, seed, ROOT, work_rel, size=size)
        manifest_path = os.path.join(work, "manifest.json")
        result_path = os.path.join(work, "result.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1)
        start = time.monotonic()
        modes = ("trace", "pass") if trace else ("pass",)
        cycles = []
        while not errors:
            cycle_start = time.monotonic()
            mode = modes[len(passes) % len(modes)]
            # set-up samples are spread over the run, not taken in one burst
            for _ in range(0 if trace else SETUP_PER_PASS):
                sample, err = _setup_sample(manifest_path, result_path,
                                            deadline)
                if err:
                    errors.append(err)
                    break
                setup.append(sample)
            if errors:
                break
            res, err, _spawned = _run_child(manifest_path, mode, result_path,
                                            deadline)
            if err:
                errors.append(err)
                break
            res["mode"] = mode
            passes.append(res)
            now = time.monotonic()
            cycles.append(now - cycle_start)
            if len(passes) >= len(modes) and (
                    now - start + max(cycles[-len(modes):]) > seconds
                    or now + max(cycles) > deadline):
                break
        setup_cycle = 0.0
        while (not trace and not errors and len(setup) < SETUP_MAX
               and time.monotonic() - start + setup_cycle <= seconds):
            before = time.monotonic()
            sample, err = _setup_sample(manifest_path, result_path, deadline)
            if err:
                errors.append(err)
                break
            setup.append(sample)
            setup_cycle = time.monotonic() - before
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(manifest, passes, setup, errors, trace, machine_before,
                     seconds)


def summarize(manifest, passes, setup, errors, trace, machine_before, seconds):
    n_ops = len(manifest["ops"])
    attempted = n_ops * max(1, len(passes) + (1 if errors else 0))
    failed = n_ops if errors else 0
    problems = list(errors)
    digests = {}
    for p in passes:
        for op in p["ops"]:
            if op["problems"]:
                failed += 1
                problems += ["%s: %s" % (op["name"], x) for x in op["problems"]]
            digests.setdefault(op["name"], set()).add(op["artifact_sha256"])
    for name, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append("%s: artifacts differ between passes" % name)
    untraced = [p for p in passes if p["mode"] == "pass"]
    traced = [p for p in passes if p["mode"] == "trace"]
    metrics = {}
    if not trace:
        if untraced and setup:
            metrics = {
                "run_s": {"value": _median([p["run_s"] for p in untraced]),
                          "unit": "s"},
                "peak_rss_mb": {
                    "value": _median([p["peak_rss_mb"] for p in untraced]),
                    "unit": "MB"},
                "setup_s": {"value": _median([n for _raw, n in setup]),
                            "unit": "s"},
            }
    elif traced and untraced:
        metrics, trace_problems = layer_metrics(traced, untraced)
        problems += trace_problems
    correct = not problems and bool(metrics)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "size": manifest["size"],
        "seconds": seconds,
        "trace": trace,
        "failed_ratio": failed / attempted,
        "samples": {
            "run_s": [p["run_s"] for p in untraced],
            "wall_run_s": [p["wall_s"] for p in untraced],
            "cpu_run_s": [p["cpu_s"] for p in untraced],
            "traced_run_s": [p["run_s"] for p in traced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            "setup_s": [n for _raw, n in setup],
            "wall_setup_s": [raw for raw, _n in setup],
        },
        "operations": [
            {"name": op["name"],
             "run_s": [p["ops"][i]["run_s"] for p in untraced],
             "wall_run_s": [p["ops"][i]["wall_s"] for p in untraced],
             "cpu_run_s": [p["ops"][i]["cpu_s"] for p in untraced],
             "speed": [p["ops"][i]["speed"] for p in untraced],
             "artifact_sha256": sorted(digests.get(op["name"], ())),
             "layers": next((p["ops"][i]["layers"] for p in traced), None)}
            for i, op in enumerate(manifest["ops"])
        ],
        "profile": traced[0]["profile"] if traced else None,
        "input_sha256": manifest["input_sha256"],
        "commit": _commit(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "machine_before": machine_before,
        "machine_after": _machine(),
    }


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(traced, untraced):
    """Per-layer metrics of the traced passes: counters must repeat exactly
    between passes; times are medians of raw wall times."""
    problems = []
    first = traced[0]["layers"]
    out = {}
    for name in first:
        values = [p["layers"][name] for p in traced]
        if _unit(name) in ("count", "bytes", "ratio"):
            if len(set(values)) != 1:
                problems.append("counter %s differs between traced passes: %r"
                                % (name, values))
            value = values[0]
        else:
            value = _median(values)
        out[name] = {"value": value, "unit": _unit(name)}
    traced_run = _median([p["run_s"] for p in traced])
    out["trace.run_s"] = {"value": traced_run, "unit": "s"}
    out["trace.overhead_s"] = {
        "value": traced_run - _median([p["wall_s"] for p in untraced]),
        "unit": "s"}
    out["trace.spans"] = {"value": traced[0]["spans"], "unit": "count"}
    for p in traced:
        if p["unrestored"]:
            problems.append("tracer left wrapped: %s" % ", ".join(p["unrestored"]))
    return out, problems


def _report(result):
    lines = ["%s seed %d: %d passes x %d operations; attempted %d, failed %d, "
             "failed_ratio %.4g" % (
                 result["workload"], result["seed"],
                 len(result["samples"]["run_s"])
                 + len(result["samples"]["traced_run_s"]),
                 len(result["operations"]), result["attempted"],
                 result["failed"], result["failed_ratio"])]
    for name, m in result["metrics"].items():
        lines.append("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for problem in result["problems"][:20]:
        lines.append("  problem: %s" % problem)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.exists(os.path.join(ROOT, "src", "opengw", "cli.py")):
        print("error: no opengw source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(_report(result))
    print("full record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
