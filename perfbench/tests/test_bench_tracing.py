"""Wrapper coverage: every holder is rebound, and the guard fires."""

import json
import os
import sys

import pytest

import run
import workloads
from tracing import TARGETS, Tracer
from worker import cli_pass

import expect
import latroids.cli  # noqa: F401  (loads every latroids module)
from latroids import limits

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _holders(obj):
    return [
        (name, key)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "latroids" or name.startswith("latroids."))
        for key, value in vars(module).items()
        if value is obj
    ]


def _original(target):
    owner = sys.modules[f"latroids.{target.module}"]
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_install_rebinds_every_holder_and_uninstall_restores():
    originals = {t.name: _original(t) for t in TARGETS}
    holders = {name: _holders(obj) for name, obj in originals.items()}
    assert all(holders[t.name] for t in TARGETS if "." not in t.attr)
    tracer = Tracer()
    tracer.install()
    try:
        for t in TARGETS:
            assert _original(t) is not originals[t.name], t.name
            assert not _holders(originals[t.name]), t.name
    finally:
        tracer.uninstall()
    for t in TARGETS:
        assert _original(t) is originals[t.name]
        assert _holders(originals[t.name]) == holders[t.name]


def test_guard_names_every_wrapper_without_calls():
    tracer = Tracer()
    for workload in workloads.WORKLOADS:
        expected = {t.name for t in TARGETS if workload in t.workloads}
        assert expected
        assert set(tracer.unseen(workload)) == expected


def test_traced_cli_small_pass_reaches_its_wrappers(tmp_path):
    ops = workloads.generate("cli-small", 0, ROOT, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        _, op_s, failures = cli_pass(ops, expect.load(), tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    assert len(op_s) == len(tracer.ops) == len(ops)
    assert tracer.unseen("cli-small") == []
    layers = tracer.layer_metrics(limits)
    assert layers["cli.parse_s"] > 0 and layers["cli.emit_s"] > 0
    assert layers["lattices.builds"] > 0
    assert 0 < layers["limits.vector_headroom"] < 1
    json.dumps(tracer.dump())


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    assert tracer.incl_s["outer"] >= tracer.incl_s["inner"]
    assert tracer.self_s["outer"] == pytest.approx(tracer.incl_s["outer"] - tracer.incl_s["inner"])
    (name_in, *_, parent_in), (name_out, *_, parent_out) = tracer.spans[1], tracer.spans[0]
    assert (name_out, parent_out, name_in, parent_in) == ("outer", -1, "inner", 0)


def test_benchmark_file_lists_the_metrics_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    groups = {t.group for t in TARGETS if t.kind == "span"}
    reported = {name[: -len("_s")] for name, _ in run.PER_LAYER if name.endswith("_s")}
    assert groups <= reported
