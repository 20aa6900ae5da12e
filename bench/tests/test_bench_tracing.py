"""Checks on the benchmark itself: run with `python -m pytest bench/tests`.

The tracer must see every layer a workload is meant to stress, so that a
renamed or re-imported function fails here instead of reporting zero, and an
untraced run must leave cyltab unwrapped.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cyltab
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]

# Each span-based per-layer metric, and the workload that must make it nonzero.
EXERCISED_BY = {
    "geometry.project.calls": "identity",
    "geometry.lift.calls": "bijection",
    "tableau.validate.calls": "identity",
    "tableau.validate.self_s": "bijection",
    "enumeration.shapes": "identity",
    "enumeration.tableaux": "identity",
    "enumeration.enumerate_ssct.self_s": "identity",
    "enumeration.schur_poly.self_s": "identity",
    "enumeration.count_standard.self_s": "identity",
    "polynomials.add.calls": "identity",
    "polynomials.mul.calls": "identity",
    "polynomials.terms": "identity",
    "polynomials.self_s": "identity",
    "polynomials.report.self_s": "identity",
    "insertion.full_multi.calls": "bijection",
    "insertion.full_multi.self_s": "bijection",
    "insertion.bumps": "bijection",
    "insertion.route_points": "bijection",
    "reverse.reverse_full_multi.calls": "bijection",
    "reverse.reverse_full_multi.self_s": "bijection",
    "reverse.bumps": "bijection",
    "crsk.crsk.self_s": "bijection",
    "crsk.crsk_inverse.self_s": "bijection",
    "marbles.encode.self_s": "bijection",
    "marbles.decode.self_s": "bijection",
    "words.word_transform.self_s": "words",
    "words.connect.self_s": "words",
    "words.replay.self_s": "words",
    "words.moves": "words",
    "cli.main.self_s": "cli",
    "serialization.self_s": "cli",
    "serialization.bytes_out": "cli",
}


def few_ops(wl) -> list:
    """A short run that still reaches every class of the workload."""
    if wl.name == "identity":
        first_of_kind = {}
        for op in wl.pool:
            first_of_kind.setdefault(op[0], op)
        return list(first_of_kind.values())
    if wl.name == "words":
        transforms = [op for op in wl.pool if op[0] == "transform"][:5]
        connects = [op for op in wl.pool if op[0] == "connect"][:5]
        return transforms + connects * 2  # the second pass hits the sorting-move cache
    return wl.pool[:22]


@pytest.fixture(scope="module")
def traced_metrics(tmp_path_factory):
    """Per-layer metric values for a short traced run of each workload."""
    values = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, tmp_path_factory.mktemp(name))
        wl.inprocess = True
        ops = few_ops(wl)
        tr = tracer.Tracer()
        tr.install()
        try:
            for op in ops:
                wl.check(op, wl.run(op))
        finally:
            tr.uninstall()
        values[name] = {
            metric: source(tr) for metric, _, source in tracer.PER_LAYER if source != "probe"
        }
    return values


@pytest.mark.parametrize("metric", sorted(EXERCISED_BY))
def test_layer_metric_is_exercised(traced_metrics, metric):
    assert traced_metrics[EXERCISED_BY[metric]][metric] > 0


def test_every_span_metric_has_a_workload():
    span_metrics = {name for name, _, source in tracer.PER_LAYER if source != "probe"}
    assert span_metrics == set(EXERCISED_BY)


def test_from_imports_are_rebound_and_restored():
    names = [
        (sys.modules["cyltab.crsk"], "full_multi"),
        (sys.modules["cyltab.crsk"], "reverse_full_multi"),
        (sys.modules["cyltab.enumeration"], "project"),
        (sys.modules["cyltab.insertion"], "lift"),
        (sys.modules["cyltab.reverse"], "lift"),
        (sys.modules["cyltab.cli"], "run_crsk"),
        (cyltab, "crsk"),
        (cyltab, "verify_cauchy"),
    ]
    before = [getattr(ns, attr) for ns, attr in names]
    tr = tracer.Tracer()
    tr.install()
    try:
        for ns, attr in names:
            assert hasattr(getattr(ns, attr), tracer.MARK), f"{ns.__name__}.{attr}"
        assert tracer.installed_wrappers() > 0
    finally:
        tr.uninstall()
    assert [getattr(ns, attr) for ns, attr in names] == before
    assert tracer.installed_wrappers() == 0


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.METHODS, "words", [("Certificate", "no_such_method")])
    with pytest.raises(AttributeError):
        tracer.Tracer().install()
    assert tracer.installed_wrappers() == 0


def test_untraced_loop_installs_no_wrapper(tmp_path):
    wl = workloads.Words(1, tmp_path)
    res = worker.closed_loop(wl, max_ops=40)
    assert res["failed"] == 0
    assert tracer.installed_wrappers() == 0


def test_words_cycles_mix_repeated_and_fresh_pairs(tmp_path):
    wl = workloads.Words(1, tmp_path)
    stream = wl.stream()
    first, second = ([next(stream) for _ in range(wl.cycle)] for _ in range(2))
    assert len(set(second) - set(first)) == wl.FRESH
    again = workloads.Words(1, tmp_path).stream()
    assert [next(again) for _ in range(2 * wl.cycle)] == first + second


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"info": info, **result}


def test_traced_run_reports_every_layer_metric():
    out = bench("--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert out["correct"] and out["failed"] == 0
    assert out["info"]["digest"] == out["info"]["untraced_digest"]
    assert list(out["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert out["metrics"]["cli.interp_s"]["value"] > 0
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    out = bench("--workload", "words", "--seed", "3", "--seconds", "1", "--trace", "0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= worker.MIN_OPS
    assert list(out["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_benchmark_json_matches_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracer.PER_LAYER
    ]
