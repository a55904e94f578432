"""Tests of the benchmark's own arithmetic and checks (run with pytest)."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, aggregate, count_under  # noqa: E402


def _spans(rows):
    """rows: (name, parent, start, end)"""
    names, parents, starts, ends = (list(c) for c in zip(*rows))
    return {"names": names, "parents": parents, "starts": starts, "ends": ends}


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("leaf", 3, 6.0, 6.5),
    ])
    agg = aggregate(spans)
    assert agg["root"] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert agg["a"] == (1, pytest.approx(2.0))
    assert agg["b"] == (1, pytest.approx(3.5))
    assert agg["leaf"] == (2, pytest.approx(1.5))
    assert sum(s for _, s in agg.values()) == pytest.approx(10.0)
    assert count_under(spans, "a", "leaf") == (1, 1)
    assert count_under(spans, "root", "leaf") == (1, 2)


def test_graft_nests_child_process_spans():
    tracer = Tracer()
    with tracer.span("bench.command") as i:
        pass
    tracer.graft(_spans([("cli.main", -1, 0.0, 1.0), ("io.read_matrix", 0, 0.1, 0.2)]), i)
    assert tracer.parents == [-1, 0, 1]


def test_steady_percentile_leaves_ten_samples_beyond():
    assert run.steady_percentile(10_000) == 99.9
    assert run.steady_percentile(1_000) == 99.0
    assert run.steady_percentile(999) == 90.0
    assert run.steady_percentile(100) == 90.0
    assert run.steady_percentile(99) == 75.0
    assert run.steady_percentile(20) == 50.0
    assert run.steady_percentile(19) is None


def test_percentile_matches_numpy():
    x = sorted(np.random.default_rng(0).standard_normal(101))
    for p in (50.0, 90.0, 99.0):
        assert run.percentile(x, p) == pytest.approx(np.percentile(x, p))


def test_speed_factor_uses_probes_near_the_interval():
    s = speed.Speedometer()
    s.mids = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    s.durations = [1e-3] * 4 + [2e-3] * 5
    assert s.factor(7.0, 7.5, pad=1.0) == pytest.approx(speed.REF_S / 2e-3)  # 5 probes, all 2 ms
    assert s.factor(0.5, 0.5, pad=0.0) == pytest.approx(speed.REF_S / 1e-3)  # nearest 5: four 1 ms


def test_wrong_answer_counts_as_failed():
    tally = workloads.Tally(speed.Speedometer(), speed.PAD_S)
    group = workloads.G.EUCLIDEAN
    a, b = workloads.pairs_inputs(0)[1][0]

    def wrong_op(group, a, b, reducer):
        d, alignment, *rest = workloads.pairs_op(group, a, b, reducer)
        return (1.1 * d, alignment, *rest)

    def raising_op(group, a, b, reducer):
        raise ValueError("boom")

    tally.run(workloads.pairs_op, workloads.pairs_check, group, a, b, None)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.run(wrong_op, workloads.pairs_check, group, a, b, None)
    tally.run(raising_op, workloads.pairs_check, group, a, b, None)
    tally.run(lambda *args: None, workloads.pairs_check, group, a, b, None)  # unreadable output
    assert (tally.attempted, tally.failed) == (4, 3)
    assert len(tally.latencies_ns) == 3


def test_tracer_wraps_every_binding_site_and_restores_them():
    import orbitdist.linalg
    import orbitdist.metrics

    original = orbitdist.linalg.svd
    tracer = Tracer()
    tracer.install()
    try:
        assert orbitdist.metrics.svd is orbitdist.linalg.svd is not original
        workloads.od.orbit_distance(workloads.G.ORTHOGONAL, np.eye(2), np.eye(2))
    finally:
        tracer.uninstall()
    assert orbitdist.metrics.svd is orbitdist.linalg.svd is original
    calls = {k: c for k, (c, _) in aggregate(tracer.to_dict()).items()}
    assert calls["metrics.orbit_distance"] == 1 and calls["linalg.svd"] == 1


def test_generator_is_seeded():
    tally = workloads.Tally(speed.Speedometer(), 0.0)
    workloads.probe_generator(tally, workloads.pairs_inputs, 7)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end_metrics([1.0], [1000, 2000], 1.0)
    per_layer = run.per_layer_metrics(Tracer().to_dict())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in end_to_end.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in per_layer.items()]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
