"""One pass of a workload in a fresh process.

    python3 perfbench/child.py MANIFEST MODE RESULT

MODE is `setup` (import the program, load the inputs, stop), `pass` (then
run every operation once, timed: wall time, CPU time and, with speed.py's
sampler, CPU time normalised to the reference speed) or `trace` (the same with the
per-layer tracer installed from set-up on, timed raw).  The result is
written as JSON to RESULT.  It carries `ready`, the `time.monotonic()`
reading when the first operation was ready, which the parent turns into
set-up time.

The program is imported before anything else of the benchmark, so that
set-up time is interpreter start, imports and input loading.
"""

import sys
import time


def main(argv):
    manifest_path, mode, result_path = argv
    import json
    import os

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    import opengw.cli  # imports every layer
    import workloads

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    loaded = workloads.load_inputs(manifest)
    result = {"ready": time.monotonic(),
              "program": os.path.dirname(os.path.abspath(opengw.cli.__file__))}
    if mode != "setup":
        result.update(run_pass(manifest, loaded, tracer))
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


def run_pass(manifest, loaded, tracer):
    """Run every operation once; the benchmark's checks run untimed and,
    when tracing, unrecorded."""
    import resource

    import speed
    import workloads

    ops = []
    run_s = wall_s = cpu_s = 0.0
    # traced passes are timed raw: their times are per-layer and unbounded
    sampler = None if tracer else speed.Sampler()
    for op in manifest["ops"]:
        if tracer:
            tracer.recording = True
            lo = tracer.mark()
        else:
            sampler.start()
        start = time.perf_counter()
        start_cpu = time.process_time()
        outcome = workloads.run_op(op, loaded)
        elapsed = time.perf_counter() - start
        elapsed_cpu = time.process_time() - start_cpu
        if tracer:
            tracer.recording = False
            wall, cpu, normalised, rel_speed = (elapsed, elapsed_cpu,
                                                elapsed, None)
        else:
            wall, cpu, normalised, rel_speed = sampler.stop(elapsed,
                                                            elapsed_cpu)
        run_s += normalised
        wall_s += wall
        cpu_s += cpu
        problems, digest, size = workloads.check_op(op, outcome, loaded)
        del outcome
        record = {"name": op["name"], "run_s": normalised, "wall_s": wall,
                  "cpu_s": cpu, "speed": rel_speed, "problems": problems,
                  "artifact_sha256": digest}
        if tracer:
            tracer.counts["cli.artifact_bytes"] += size
            record["layers"] = tracer.metrics(lo, tracer.mark())
        ops.append(record)
    out = {
        "run_s": run_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer:
        # the whole record: set-up loading plus the pass
        out["layers"] = tracer.metrics()
        out["profile"] = tracer.profile()
        out["spans"] = len(tracer.span_name)
        out["unrestored"] = tracer.remove()
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
