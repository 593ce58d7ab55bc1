"""Benchmark entry point for the latroids library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs the workload's
fixed batch once in a fresh interpreter (``worker.py``), so the package's
in-process caches start cold every time.  Passes repeat for about
``--seconds`` (at least one runs).  With ``--trace 1`` untraced and traced
passes alternate; the traced ones give the per-layer metrics, and the
difference between the two walls is the trace overhead.

End-to-end times are scaled to a reference speed of the host
(``refclock``), because the speed of the virtual machines this runs on
drifts by up to a factor of two within a minute; the raw median pass wall
and the reference kernel's time are printed next to them.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lattices.build_s", "s"),
    ("lattices.builds", "count"),
    ("lattices.elements", "count"),
    ("lattices.pairs", "count"),
    ("lattices.leq_matrix_s", "s"),
    ("lattices.dual_s", "s"),
    ("lattices.interval_s", "s"),
    ("lattices.predicates_s", "s"),
    ("core.validate_latroid_s", "s"),
    ("core.validate_latroid_calls", "count"),
    ("core.validate_latroid_pairs", "count"),
    ("core.axioms_s", "s"),
    ("core.rank_from_s", "s"),
    ("core.dual_latroid_s", "s"),
    ("core.derived_sets_s", "s"),
    ("code_latroids.construct_s", "s"),
    ("code_latroids.builds_per_op", "count/op"),
    ("code_latroids.weights_s", "s"),
    ("codes.span_s", "s"),
    ("codes.codewords", "count"),
    ("codes.enumerate_submodules_s", "s"),
    ("codes.submodules", "count"),
    ("supports.validate_s", "s"),
    ("supports.ambient_vectors", "count"),
    ("rings.add_calls", "count"),
    ("rings.vadd_calls", "count"),
    ("isometries.is_isometry_s", "s"),
    ("isometries.decompose_s", "s"),
    ("enumerators.rprime_s", "s"),
    ("enumerators.rprime_per_op", "count/op"),
    ("enumerators.from_rprime_s", "s"),
    ("enumerators.refined_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    *((f"selftest.c{i}_s", "s") for i in range(1, 11)),
    ("waste.latroid_builds_useful", "ratio"),
    ("waste.rprime_useful", "ratio"),
    ("waste.validate_useful", "ratio"),
    ("limits.lattice_headroom", "ratio"),
    ("limits.submodule_headroom", "ratio"),
    ("limits.vector_headroom", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Set-up is sampled once per pass and by SETUP_PER_ROUND import-only
# processes after each round of passes, and topped up to SETUP_SAMPLES at
# the end.  A single sample spreads by about a third from the next, so the
# median needs many.
SETUP_PER_ROUND = 4
SETUP_SAMPLES = 21
# No single pass of any workload comes near this; it only bounds a hang.
PASS_TIMEOUT_S = 120


class PassError(RuntimeError):
    pass


def _spawn(args: list[str]) -> None:
    """Run a worker to completion."""
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # the same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env[worker.SPAWNED_AT] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=sys.stderr,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=PASS_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise PassError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def run_pass(manifest: str, out: str, trace_out: str | None = None) -> dict:
    _spawn([manifest, out] + (["--trace", trace_out] if trace_out else []))
    with open(out) as fh:
        return json.load(fh)


def setup_sample(tmp: str) -> float:
    out = os.path.join(tmp, "setup.json")
    _spawn(["--setup-only", out])
    with open(out) as fh:
        return json.load(fh)["setup_s"]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    # Each operation's latency is its median over the run's passes (a pass
    # holds the same batch in the same order each time); the percentiles are
    # taken over those, so they do not jump between two operations of very
    # different cost when noise reorders single samples.
    ops_ms = [1e3 * statistics.median(times) for times in zip(*(p["op_s"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p90": statistics.quantiles(ops_ms, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {
        name: statistics.median(p["layers"].get(name, 0) for p in traced)
        for name, _ in PER_LAYER
    }
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: str):
    ops = workloads.generate(workload, seed, ROOT, tmp)
    manifest = os.path.join(tmp, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"workload": workload, "ops": [[op.command, op.config, op.key] for op in ops]}, fh)
    trace_out = os.path.join(workloads.build_dir(ROOT), f"trace-{workload}-seed{seed}.json")

    plain, traced, setups = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        plain.append(run_pass(manifest, os.path.join(tmp, f"pass{len(plain)}.json")))
        setups.append(plain[-1]["setup_s"])
        if trace:
            out = os.path.join(tmp, f"traced{len(traced)}.json")
            traced.append(run_pass(manifest, out, trace_out))
            setups.append(traced[-1]["setup_s"])
        setups += [setup_sample(tmp) for _ in range(SETUP_PER_ROUND)]
        # Start another round only if it would end less than half a round
        # past the deadline, so a run lasts about ``seconds`` on average.
        now = time.monotonic()
        if now + (now - started) / 2 >= deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(tmp))
    return plain, traced, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the running worker, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    package = os.path.join(ROOT, "src", "latroids", "__init__.py")
    if not os.path.isfile(package):
        print(f"no source checkout here: {package} is missing", file=sys.stderr)
        return 2
    # Byte-compile once so every timed set-up reads cached bytecode.
    if not compileall.compile_dir(os.path.join(ROOT, "src", "latroids"), quiet=1):
        print("byte-compiling src/latroids failed", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.build_dir(ROOT))
    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except (PassError, subprocess.TimeoutExpired) as e:
        print(f"benchmark pass failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = plain + traced
    attempted = sum(p["attempted"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    unseen = sorted({name for p in traced for name in p["unseen"]})
    e2e = end_to_end(plain, setups)
    layers = per_layer(plain, traced) if traced else {}

    units = dict(END_TO_END + PER_LAYER)
    corpus = f" (corpus seed {workloads.SELFTEST_SEED})" if args.workload == "selftest" else ""
    print(f"workload {args.workload}, seed {args.seed}{corpus}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-up samples")
    raw = {
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "ref_kernel_s": statistics.median(p["ref_s"] for p in plain),
    }
    units["raw_wall_s"] = units["ref_kernel_s"] = "s"
    for name, value in {**e2e, **raw, "error_rate": len(failures) / attempted, **layers}.items():
        print(f"  {name} = {value:.6g} {units.get(name, 'ratio')}")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    for name in unseen:
        print(f"  UNSEEN wrapper {name} saw no call on {args.workload}")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    result = {
        "correct": not failures and not unseen,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
