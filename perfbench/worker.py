"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST OUT [--trace TRACE_OUT]
    python3 perfbench/worker.py --setup-only OUT

The first thing the process does is start the reference clock
(``refclock``) and import the package; set-up is the time from the moment
the parent started the process (``SPAWNED_AT``) until the import is done.
It then runs the manifest's batch once, checks every result against the
expectation table and writes a JSON summary to OUT.  Every time is scaled
to the reference speed, with the clock sampling the host's speed all
through the process.  With ``--trace`` the layer wrappers are installed
first and the span dump goes to TRACE_OUT.
"""

import os
import sys
import time

# Environment variable with the parent's CLOCK_MONOTONIC reading taken just
# before it started this process; set-up is timed from there.
SPAWNED_AT = "PERFBENCH_SPAWNED_AT"


def _import_package() -> float:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import latroids.cli  # noqa: F401  (the CLI imports selftest as well)

    return time.perf_counter()


def run_cli_op(op):
    """Run one CLI command in-process: (exit code, stdout, traceback, (start, end))."""
    import contextlib
    import io
    import traceback
    from time import perf_counter

    from latroids import cli

    buf = io.StringIO()
    err = ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--command", op.command, "--config", op.config])
    except SystemExit as e:
        code = e.code
    except Exception:  # an escaped exception is a failed operation
        code, err = None, traceback.format_exc()
    return code, buf.getvalue(), err, (start, perf_counter())


def cli_pass(ops, table, tracer):
    """Run the batch; returns (pass interval, op intervals, failure reasons).

    An interval is a (start, end) pair of ``perf_counter`` readings.
    """
    import expect
    from time import perf_counter

    results = []
    start = perf_counter()
    for op in ops:
        if tracer:
            tracer.begin_op(op.key)
        results.append(run_cli_op(op))
        if tracer:
            tracer.end_op()
    wall = (start, perf_counter())

    failures = []
    for op, (code, out, err, _) in zip(ops, results):
        name = f"{op.command} {op.key}"
        if err:
            reason = "traceback: " + err.strip().splitlines()[-1]
        else:
            try:
                reason = expect.mismatch(table.get(name), expect.observe(op.command, code, out))
            except ValueError as e:
                reason = f"unreadable output: {e}"
        if reason:
            failures.append(f"{name}: {reason}")
    return wall, [r[3] for r in results], failures


def selftest_pass(seed, table, tracer):
    """``run_all(seed)`` with each criterion timed as one operation.

    Returns (pass interval, op intervals, failure reasons, attempted).
    """
    import dataclasses
    import traceback
    from time import perf_counter

    import expect
    from latroids import selftest

    times = {}

    def timed(criterion):
        def run(s):
            if tracer:
                tracer.begin_op(f"criterion {criterion.number}")
                tracer.enter(f"selftest.c{criterion.number}")
            start = perf_counter()
            try:
                return criterion.run(s)
            finally:
                times[criterion.number] = (start, perf_counter())
                if tracer:
                    tracer.exit()
                    tracer.end_op()

        return dataclasses.replace(criterion, run=run)

    original = selftest.CRITERIA
    selftest.CRITERIA = tuple(timed(c) for c in original)
    rows, error = [], ""
    start = perf_counter()
    try:
        rows = selftest.run_all(seed)
    except Exception:  # a criterion that raises fails with the rest of the pass
        error = traceback.format_exc().strip().splitlines()[-1]
    finally:
        wall = (start, perf_counter())
        selftest.CRITERIA = original

    failures = []
    reported = {num: rep for num, _, rep in rows}
    for criterion in original:
        name = f"selftest criterion {criterion.number}"
        rep = reported.get(criterion.number)
        if rep is None:
            failures.append(f"{name}: not reported, run_all raised {error}")
            continue
        reason = expect.mismatch(table.get(name), expect.observe_criterion(rep))
        if reason:
            failures.append(f"{name}: {reason}: {rep.summary()}")
    ops = [times.get(c.number, (start, start)) for c in original]
    return wall, ops, failures, len(original)


def main(argv) -> int:
    # The clock samples the host's speed from here on, through the import
    # (refclock imports numpy, which the package imports anyway).
    import refclock

    clock = refclock.RefClock()
    clock.start()
    imported_at = _import_package()
    import json
    import resource
    import statistics

    def setup_s(speeds):
        return clock.scaled(float(os.environ[SPAWNED_AT]), imported_at, speeds)

    if argv[0] == "--setup-only":
        clock.stop()
        with open(argv[1], "w") as fh:
            json.dump({"setup_s": setup_s(clock.speeds())}, fh)
        return 0

    import expect
    import workloads
    from tracing import Tracer

    manifest_path, out = argv[0], argv[1]
    trace_out = argv[3] if argv[2:3] == ["--trace"] else None
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    table = expect.load()

    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install()
    try:
        if manifest["workload"] == "selftest":
            wall, op_ivs, failures, attempted = selftest_pass(workloads.SELFTEST_SEED, table, tracer)
        else:
            ops = [workloads.Op(*op) for op in manifest["ops"]]
            wall, op_ivs, failures = cli_pass(ops, table, tracer)
            attempted = len(ops)
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speeds = clock.speeds()

    result = {
        "setup_s": setup_s(speeds),
        "wall_s": clock.scaled(*wall, speeds),
        "raw_wall_s": wall[1] - wall[0],
        "op_s": [clock.scaled(*iv, speeds) for iv in op_ivs],
        "ref_s": statistics.median(speeds),
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": rss_mb,
    }
    if tracer:
        from latroids import limits

        result["layers"] = tracer.layer_metrics(limits)
        result["unseen"] = tracer.unseen(manifest["workload"])
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
