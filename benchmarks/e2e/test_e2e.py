"""Tests of the benchmark itself.  Not in tier-1 ``testpaths``; run with

    python3 -m pytest -q benchmarks/e2e/test_e2e.py

(under a minute: the tracer's unit tests, then one ``--smoke`` run of
all four workloads and the checks on what it printed and wrote).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spec  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


# -- the generator-aware span wrapper ---------------------------------------------
class FakeClock:
    """A clock the traced code advances itself, so self times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def traced():
    clock = FakeClock()
    return Tracer(clock=clock), clock


def self_seconds(tracer: Tracer) -> dict:
    return {layer: entry["self_s"] for layer, entry in tracer.report()["layers"].items()}


def drain(generator, replies=()):
    """Drive a generator like ``Process`` does; returns (yielded, result)."""
    replies = list(replies)
    yielded = []
    try:
        item = next(generator)
        while True:
            yielded.append(item)
            item = generator.send(replies.pop(0) if replies else None)
    except StopIteration as stop:
        return yielded, stop.value


def test_self_time_with_nested_yield_from(traced):
    tracer, clock = traced

    def inner():
        clock.work(2)
        got = yield "inner-1"
        clock.work(3)
        return got * 2

    def outer():
        clock.work(1)
        doubled = yield from inner_t()
        clock.work(5)
        yield "outer-1"
        clock.work(7)
        return doubled + 1

    inner_t = tracer.wrap(inner, tracer.boundary("B", "inner"))
    outer_t = tracer.wrap(outer, tracer.boundary("A", "outer"))
    generator = outer_t()
    assert next(generator) == "inner-1"
    clock.work(100)  # suspended: nobody is charged
    assert generator.send(21) == "outer-1"
    with pytest.raises(StopIteration) as stop:
        generator.send(None)
    assert stop.value.value == 43
    assert self_seconds(tracer) == {"A": 13.0, "B": 5.0}
    rows = {(r["boundary"], r["parent"]): r for r in tracer.report()["boundaries"]}
    assert rows[("inner", "A")]["calls"] == 1 and rows[("inner", "A")]["spans"] == 2
    assert rows[("outer", None)]["spans"] == 3
    assert rows[("outer", None)]["inclusive_s"] == 18.0
    assert not tracer.stack


def test_throw_reaches_the_wrapped_generator(traced):
    tracer, clock = traced

    def inner():
        try:
            yield "waiting"
        except KeyError:
            clock.work(4)
            yield "recovered"
        return "done"

    def outer():
        result = yield from inner_t()
        return result

    inner_t = tracer.wrap(inner, tracer.boundary("B", "inner"))
    generator = tracer.wrap(outer, tracer.boundary("A", "outer"))()
    assert next(generator) == "waiting"
    assert generator.throw(KeyError("lost")) == "recovered"
    with pytest.raises(StopIteration) as stop:
        next(generator)
    assert stop.value.value == "done"
    assert self_seconds(tracer) == {"A": 0.0, "B": 4.0}
    # An exception the generator does not handle leaves through every span.
    generator = tracer.wrap(outer, tracer.boundary("A", "outer"))()
    next(generator)
    with pytest.raises(ValueError):
        generator.throw(ValueError("fatal"))
    raised = {r["boundary"]: r["raised"] for r in tracer.report()["boundaries"]}
    assert raised == {"inner": 1, "outer": 1}
    assert not tracer.stack


def test_exception_inside_a_span_unwinds_the_stack(traced):
    tracer, clock = traced

    def failing():
        clock.work(2)
        raise RuntimeError("boom")

    def caller():
        clock.work(1)
        try:
            failing_t()
        except RuntimeError:
            clock.work(3)
        return "survived"

    failing_t = tracer.wrap(failing, tracer.boundary("B", "failing"))
    assert tracer.wrap(caller, tracer.boundary("A", "caller"))() == "survived"
    assert self_seconds(tracer) == {"A": 4.0, "B": 2.0}
    rows = {r["boundary"]: r for r in tracer.report()["boundaries"]}
    assert rows["failing"]["raised"] == 1 and rows["caller"]["raised"] == 0
    assert not tracer.stack


def test_one_layer_may_reenter_itself(traced):
    tracer, clock = traced

    def put(key):
        clock.work(2)
        yield key

    def update():
        clock.work(1)
        for key in ("a", "b"):
            yield from put_t(key)
        clock.work(1)

    put_t = tracer.wrap(put, tracer.boundary("meta", "put"))
    assert drain(tracer.wrap(update, tracer.boundary("meta", "update"))())[0] == ["a", "b"]
    rows = {r["boundary"]: r for r in tracer.report()["boundaries"]}
    assert rows["put"]["parent"] == "meta"
    assert rows["update"]["inclusive_s"] == 6.0 and rows["update"]["self_s"] == 2.0
    assert self_seconds(tracer) == {"meta": 6.0}


def test_sampled_operations_carry_their_id_into_child_spans(traced):
    tracer, _clock = traced
    tracer.sample_every = 2

    def child():
        yield "c"

    def op():
        yield from child_t()

    child_t = tracer.wrap(child, tracer.boundary("B", "child"))
    op_t = tracer.wrap(op, tracer.boundary("A", "op", op_root=True))
    drain(op_t())
    assert tracer.raw_spans() == []  # the first operation is not sampled
    drain(op_t())
    spans = tracer.raw_spans()
    assert {s["op"] for s in spans} == {2}
    assert [s["name"] for s in spans[:2]] == ["A:op", "B:child"]
    assert spans[1]["parent"] == spans[0]["id"]


def test_install_and_uninstall_restore_the_program():
    from repro.blobseer import client, segment_tree
    from repro.simulation.engine import Environment

    originals = (Environment.step, Environment.process, segment_tree.tree_update,
                 client.tree_update)
    tracer = Tracer().install()
    try:
        assert Environment.step is not originals[0]
        # ``from .segment_tree import tree_update`` was rebound as well.
        assert client.tree_update is segment_tree.tree_update is not originals[2]
        layers = {b.layer for b in tracer.boundaries.values()}
        assert layers <= set(LAYERS)
    finally:
        tracer.uninstall()
    assert (Environment.step, Environment.process, segment_tree.tree_update,
            client.tree_update) == originals


# -- the metric tables ----------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_tables_fit_the_contract():
    assert len(spec.END_TO_END) == 9
    assert len(spec.DRIVER_END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    names = [m.name for m in spec.END_TO_END] + [m.name for m in spec.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in list(spec.END_TO_END) + list(spec.PER_LAYER):
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert 0.0 <= metric.bound <= 0.25
    for metric in spec.PER_LAYER:
        layer = metric.name.rsplit(".", 1)[0]
        assert layer in LAYERS or layer == "trace", metric.name


def test_benchmark_json_agrees_with_the_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["workloads"] == [
        {"name": name, "why": why} for name, why in spec.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.DRIVER_END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in manifest["end_to_end"])


def test_tail_percentile_needs_ten_samples_beyond():
    assert spec.tail_percentile(4000) == 0.99
    assert spec.tail_percentile(240) == 0.95
    assert spec.tail_percentile(154) == 0.90
    assert spec.tail_percentile(40) == 0.75
    assert spec.tail_percentile(39) is None
    assert spec.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_compare_verdicts():
    wall = next(m for m in spec.END_TO_END if m.name == "wall_s")
    ops = next(m for m in spec.END_TO_END if m.name == "sim_ops_per_s")
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")

    def stat(value, spread=0.0):
        return {"value": value, "q1": value - spread / 2, "q3": value + spread / 2}

    assert wall.bound == 0.25
    assert compare.verdict(wall, stat(10.0, 0.2), stat(12.0)) == "unchanged"
    assert compare.verdict(wall, stat(10.0, 0.2), stat(13.0)) == "regressed"
    assert compare.verdict(wall, stat(10.0, 0.2), stat(7.0)) == "improved"
    assert compare.verdict(wall, stat(10.0, 3.0), stat(13.0)) == "unresolved"
    assert compare.verdict(ops, stat(100.0), stat(100.0)) == "unchanged"
    assert compare.verdict(ops, stat(100.0), stat(99.999)) == "regressed"
    assert compare.verdict(ops, stat(100.0), stat(100.001)) == "improved"
    # setup_s must worsen by 25% *and* by 0.05 s.
    assert compare.verdict(setup, stat(0.10), stat(0.14)) == "unchanged"
    assert compare.verdict(setup, stat(0.40), stat(0.55)) == "regressed"


# -- one smoke run of everything ----------------------------------------------------------
def run_harness(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(ROOT), text=True, capture_output=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    spans = out.with_name("spans.json")
    done = run_harness("--smoke", "--repeats", "3", "--out", str(out),
                       "--spans-out", str(spans), "--sample-every", "10")
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text()), json.loads(spans.read_text())


def test_smoke_reports_every_metric_of_every_workload(smoke):
    stdout, results, _spans = smoke
    assert results["schema"] == spec.SCHEMA
    assert [r["workload"] for r in results["runs"]] == list(spec.WORKLOADS)
    for run in results["runs"]:
        assert list(run["end_to_end"]) == [m.name for m in spec.END_TO_END]
        assert list(run["per_layer"]) == [m.name for m in spec.PER_LAYER]
        for name, entry in list(run["end_to_end"].items()) + list(run["per_layer"].items()):
            assert UNIT.match(entry["unit"]), name
            assert isinstance(entry["value"], (int, float)), name
            assert name in stdout
        for entry in run["end_to_end"].values():
            assert entry["n"] == 3 and entry["q1"] <= entry["value"] <= entry["q3"]
        assert run["checks"] == "ok" and len(run["sim_digest"]) == 64
        assert run["per_layer"]["trace.coverage"]["value"] >= 0.95, run["workload"]
        assert run["per_layer"]["trace.overhead_ratio"]["value"] > 1.0


def test_smoke_layers_are_active_only_on_their_own_workloads(smoke):
    _stdout, results, _spans = smoke
    value = {r["workload"]: {k: v["value"] for k, v in r["per_layer"].items()}
             for r in results["runs"]}
    for name, active in (("cache.lookups", {"adaptive_read"}),
                         ("adaptation.loop_steps", {"adaptive_read"}),
                         ("security.scans", {"dos_defense"}),
                         ("monitoring.emitted", {"bulk_write", "dos_defense"})):
        assert {w for w in value if value[w][name] > 0} == active, name
    assert value["dos_defense"]["security.detections"] == 3
    assert value["dos_defense"]["security.false_positives"] == 0
    assert value["adaptive_read"]["cluster.degradations"] == 2


def test_smoke_raw_spans_are_sampled_per_client_operation(smoke):
    _stdout, _results, spans = smoke
    sampled = spans["meta_fanout:0"]
    assert sampled and all(s["end"] >= s["start"] for s in sampled)
    assert {s["op"] % 10 for s in sampled} == {0}
    assert any(s["name"].startswith("blobseer.metadata:") for s in sampled)


def test_a_corrupted_history_fails_the_run():
    done = run_harness("--smoke", "--repeats", "3", "--workload", "bulk_write",
                       "--corrupt", "--out", "/dev/null")
    assert done.returncode != 0
    assert "output checks failed" in done.stderr


def test_pinned_slo_constants_match_the_probe():
    import workloads

    for workload in workloads.WORKLOADS.values():
        probed = workloads.probe_unloaded_latency(workload)
        assert probed == pytest.approx(workload.unloaded_op_s, abs=1e-6), workload.name


def test_driver_run_prints_the_contract_line():
    # The smallest real driver run is too long for this file: check the
    # shape on the traced variant of the cheapest workload instead.
    done = run_harness("--workload", "bulk_write", "--seed", "3", "--seconds", "1",
                       "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 240 and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in spec.PER_LAYER]
