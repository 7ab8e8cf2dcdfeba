"""Tests of the benchmark itself: percentile rule, span arithmetic, smoke runs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from metacross import classifier  # noqa: E402
from metacross import tensor as T  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert stats.min_samples(0.9) == 100
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(99, 0.9) == 9
    assert worker.MIN_ITEMS == 100


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert stats.nearest_rank(values, 0.5) == 50.0
    assert stats.nearest_rank(values, 0.9) == 90.0
    summary = stats.latency_summary(list(reversed(values)))
    assert summary["item_ms_p50"] == 50.0 and summary["item_ms_p90"] == 90.0
    assert summary["samples"] == 100 and summary["beyond_p90"] == 10
    assert sum(v > summary["item_ms_p90"] for v in values) == summary["beyond_p90"]


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root(100) -> a(60) -> b(20); root -> c(10)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([100.0, 60.0, 20.0, 10.0])
    self_ms = tracer_mod.self_times(parent, dur)
    assert self_ms.tolist() == [30.0, 40.0, 20.0, 10.0]
    assert self_ms.sum() == dur[0]


def test_within_marks_descendants():
    parent = np.array([-1, 0, 1, 0, 3])
    hit = np.array([False, True, False, False, False])
    assert tracer_mod.within(parent, hit).tolist() == [False, True, True, False, False]


@pytest.fixture
def fake_clock(monkeypatch):
    """perf_counter_ns that advances 1000 ns per reading."""
    ticks = iter(range(0, 10 ** 9, 1000))
    monkeypatch.setattr(tracer_mod.time, "perf_counter_ns", lambda: next(ticks))


def test_summary_attributes_backward_to_the_recording_layer(fake_clock):
    original_mul = T.mul
    tr = tracer_mod.Tracer()
    tr.install()
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)

    def item():
        with T.Tape() as tape:
            tape.backward(T.sum_(T.mul(x, x)))

    try:
        tr.run_item(0, item)
    finally:
        tr.uninstall()
    assert T.mul is original_mul  # originals are back
    out = tracer_mod.summarize(tr, 1)
    item_ms = out["item_ms"][0]
    assert sum(out["self_ms"].values()) == pytest.approx(item_ms)
    assert out["item_attributed_ms"][0] == pytest.approx(item_ms - out["self_ms"]["harness.item"])
    assert out["counts"]["tensor.ops_recorded"] == 2
    assert set(out["other_ops"]) == {"mul", "sum_"}
    assert out["self_ms"]["tensor.other.bwd"] > 0
    assert out["inclusive_ms"]["tensor.backward"] == pytest.approx(
        out["self_ms"]["tensor.backward"] + out["self_ms"]["tensor.other.bwd"])
    np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 2)))


# -- reference checks --------------------------------------------------------

def test_conv_reference_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    x, w, b = rng.standard_normal((1, 2, 5)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)
    xp = np.pad(x, [(0, 0), (0, 0), (1, 1)])
    want = np.array([[[b[o] + sum(w[o, c, k] * xp[0, c, 2 * p + k] for c in range(2) for k in range(3))
                       for p in range(3)] for o in range(3)]])
    np.testing.assert_allclose(workloads.conv_reference(x, w, b, stride=2, padding=1), want, rtol=1e-12)


@pytest.mark.parametrize("kind", ["conv2d", "conv3d"])
def test_conv_check_fails_on_wrong_arithmetic(kind, monkeypatch):
    modules = [SimpleNamespace(in_ch=2, out_ch=3, kernel=3, stride=2, padding=1)]
    assert workloads.conv_check(kind, modules, seed=0).passed
    real = T._conv_nd

    def off_in_the_eighth_digit(*args):
        out = real(*args)
        out.data *= 1 + 1e-8
        return out

    monkeypatch.setattr(T, "_conv_nd", off_in_the_eighth_digit)
    assert not workloads.conv_check(kind, modules, seed=0).passed


def test_cls_loss_check_fails_without_film(monkeypatch):
    wl = workloads.ClsProbe(seed=2)
    wl.start_episode()
    assert wl.loss_check(wl.batches[0]).passed
    monkeypatch.setattr(classifier, "film_apply", lambda x, params: x)
    assert not wl.loss_check(wl.batches[0]).passed


def test_quality_checks():
    assert [c.passed for c in workloads.SegEval.quality_checks({"dice_mean": 0.013})] == [False]
    assert [c.passed for c in workloads.SegEval.quality_checks({"dice_mean": 0.7})] == [True]
    low = {"loss_first": 1.0, "loss_final": 0.5}
    assert [c.passed for c in workloads.SegTrain.quality_checks(low)] == [True]
    assert [c.passed for c in workloads.SegTrain.quality_checks(dict(low, loss_final=1.0))] == [False]


# -- smoke runs --------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_item_smoke_run(workload):
    res = worker.run(workload, seed=5, seconds=0, trace=False, t0=time.monotonic(), max_items=1)
    assert res["items"] == 1 and res["failed_items"] == 0
    assert all(c["passed"] for c in res["checks"]), res["checks"]
    assert res["setup_s"] > 0 and res["peak_rss_mb"] > 0
    assert np.isfinite(list(res["quality"].values())).all()


def test_run_stops_at_an_episode_boundary_and_checks_quality(monkeypatch):
    monkeypatch.setattr(worker, "MIN_ITEMS", 1)
    res = worker.run("seg_eval", seed=5, seconds=0, trace=False, t0=time.monotonic())
    assert res["items"] == res["episode_items"] and res["episodes"] == 1
    names = [c["name"] for c in res["checks"]]
    assert "dice_mean_floor" in names and "conv3d_matches_reference" in names
    assert all(c["passed"] for c in res["checks"]), res["checks"]


def test_traced_smoke_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT", tmp_path)
    plain = worker.run("seg_eval", seed=5, seconds=0, trace=False, t0=time.monotonic(), max_items=2)
    res = worker.run("seg_eval", seed=5, seconds=0, trace=True, t0=time.monotonic(), max_items=2)
    metrics = run.per_layer(res)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["tensor.conv3d.fwd_ms"] > 0 and metrics["tensor.conv3d.bwd_ms"] == 0
    assert metrics["segmentation.checkpoint_load_ms"] > 0
    assert metrics["quality.dice_mean"] == res["quality"]["dice_mean"] > 0
    assert 0 < metrics["trace.selftime_sum_ms"] <= max(res["layers"]["item_ms"])
    assert plain["quality"] == res["quality"]
    assert all(c["passed"] for c in res["checks"]), res["checks"]
    assert (tmp_path / "spans_seg_eval_seed5.tsv.gz").is_file()


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "seg_eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
