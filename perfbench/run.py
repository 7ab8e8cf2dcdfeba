"""metacross benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload seg_train --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop with one client
in one worker process, plus set-up-only processes so that ``setup_s`` is a
median. ``--trace 1`` is a separate run that traces every other item and
reports per-layer metrics, with the untraced items of the same run as the
base for the tracing overhead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seg_train", "seg_eval", "cls_probe")
# one fixed BLAS thread count for every run, never more than the CPUs we may use
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_PROBES = 4  # set-up-only processes; setup_s is the median over them and the measured run
WORKER_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tensor.conv3d.fwd_ms": "ms", "tensor.conv3d.bwd_ms": "ms",
    "tensor.conv3d.gflops": "GFLOP/s", "tensor.conv3d.peak_frac": "frac",
    "tensor.gemm_peak_gflops": "GFLOP/s",
    "tensor.conv2d.fwd_ms": "ms", "tensor.conv2d.bwd_ms": "ms",
    "tensor.other.fwd_ms": "ms", "tensor.other.bwd_ms": "ms",
    "tensor.backward_ms": "ms", "tensor.ops_recorded": "count",
    "nn.adam_ms": "ms", "nn.clip_ms": "ms",
    "attention.tokenizer_ms": "ms", "attention.block_ms": "ms",
    "metadata.encoder_ms": "ms", "metadata.film_ms": "ms",
    "segmentation.forward_ms": "ms", "segmentation.loss_ms": "ms", "segmentation.stems_run": "count",
    "segmentation.checkpoint_load_ms": "ms", "phantoms.generate_ms": "ms", "configfile.load_ms": "ms",
    "phantoms.apply_availability_ms": "ms",
    "classifier.forward_calls": "count", "classifier.forward_ms": "ms", "classifier.film_apply_ms": "ms",
    "harness.cls_loss_groups": "count", "harness.unattributed_ms": "ms",
    "complexity.flops_per_item": "FLOP",
    "trace.selftime_sum_ms": "ms", "trace.selftime_vs_p50": "ratio",
    "trace.overhead_frac": "frac", "trace.conv3d_share": "frac",
    "quality.loss_final": "loss", "quality.dice_mean": "frac", "quality.cls_accuracy": "frac",
}
QUALITY = {"loss_final": "lower is better", "loss_first": "the first losses of an episode",
           "dice_mean": "higher is better", "cls_accuracy": "higher is better",
           "shuffled_accuracy": "probe, true metadata shuffled"}


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [worker(workload, seed, seconds, False, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(workload, seed, seconds, False)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    values = {"setup_s": statistics.median(setups), "items_per_s": res["items_per_s"],
              "item_ms_p50": res["item_ms_p50"], "item_ms_p90": res["item_ms_p90"],
              "peak_rss_mb": res["peak_rss_mb"]}
    return res, values


def per_layer(res: dict) -> dict:
    L = res["layers"]
    self_ms, incl, counts, setup = L["self_ms"], L["inclusive_ms"], L["counts"], L["setup_ms"]
    conv_ms = self_ms.get("tensor.conv3d", 0.0) + self_ms.get("tensor.conv3d.bwd", 0.0)
    gflops = L["conv3d_flops_per_item"] / conv_ms / 1e6 if conv_ms else 0.0
    attributed_p50 = nearest_rank(sorted(L["item_attributed_ms"]), 0.5)
    traced_mean = statistics.fmean(L["item_ms"])
    quality = res["quality"]
    return {
        "tensor.conv3d.fwd_ms": self_ms.get("tensor.conv3d", 0.0),
        "tensor.conv3d.bwd_ms": self_ms.get("tensor.conv3d.bwd", 0.0),
        "tensor.conv3d.gflops": gflops,
        "tensor.conv3d.peak_frac": gflops / L["gemm_peak_gflops"],
        "tensor.gemm_peak_gflops": L["gemm_peak_gflops"],
        "tensor.conv2d.fwd_ms": self_ms.get("tensor.conv2d", 0.0),
        "tensor.conv2d.bwd_ms": self_ms.get("tensor.conv2d.bwd", 0.0),
        "tensor.other.fwd_ms": self_ms.get("tensor.other", 0.0),
        "tensor.other.bwd_ms": self_ms.get("tensor.other.bwd", 0.0),
        "tensor.backward_ms": incl["tensor.backward"],
        "tensor.ops_recorded": counts["tensor.ops_recorded"],
        "nn.adam_ms": self_ms.get("nn.adam", 0.0),
        "nn.clip_ms": self_ms.get("nn.clip", 0.0),
        "attention.tokenizer_ms": incl["attention.tokenizer"],
        "attention.block_ms": incl["attention.block"],
        "metadata.encoder_ms": incl["metadata.encoder"],
        "metadata.film_ms": incl["metadata.film"],
        "segmentation.forward_ms": self_ms.get("segmentation.forward", 0.0),
        "segmentation.loss_ms": incl["segmentation.loss"],
        "segmentation.stems_run": counts["segmentation.stems_run"],
        "segmentation.checkpoint_load_ms": setup.get("segmentation.checkpoint_load", 0.0),
        "phantoms.generate_ms": setup.get("phantoms.generate", 0.0),
        "configfile.load_ms": setup.get("configfile.load", 0.0),
        "phantoms.apply_availability_ms": self_ms.get("phantoms.apply_availability", 0.0),
        "classifier.forward_calls": counts["classifier.forward_calls"],
        "classifier.forward_ms": incl["classifier.forward"],
        "classifier.film_apply_ms": incl["classifier.film_apply"],
        "harness.cls_loss_groups": counts["harness.cls_loss_groups"],
        "harness.unattributed_ms": self_ms.get("harness.item", 0.0),
        "complexity.flops_per_item": res["flops_per_item"],
        "trace.selftime_sum_ms": attributed_p50,
        "trace.selftime_vs_p50": attributed_p50 / res["item_ms_p50"],
        "trace.overhead_frac": traced_mean / res["item_ms_mean"] - 1.0,
        "trace.conv3d_share": conv_ms / traced_mean,
        "quality.loss_final": quality.get("loss_final", 0.0),
        "quality.dice_mean": quality.get("dice_mean", 0.0),
        "quality.cls_accuracy": quality.get("cls_accuracy", 0.0),
    }


def report(args, res: dict, metrics: dict, units: dict, failed: int, attempted: int) -> list[str]:
    """The readable report printed above the result line."""
    env = res["env"]
    lines = [
        f"metacross benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"environment: python {env['python']} | numpy {env['numpy']} | {env['blas']} {env['blas_version']} "
        f"| BLAS threads {env['blas_threads']} (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}) "
        f"| nproc {env['nproc']} (usable {env['affinity_cpus']}) | seed {env['seed']}",
        f"closed loop, 1 client, 1 process{' (every other item traced)' if args.trace else ''}: "
        f"{res['items']} items in {res['wall_s']:.2f} s, {res['episodes']} episode(s) of "
        f"{res['episode_items']} items; {res['samples']} untraced latency samples, "
        f"{res['beyond_p90']} beyond p90",
    ]
    lines += [f"  {name:<34} {value:>14.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  {'failed_frac':<34} {failed / attempted:>14.6g} frac  ({failed} of {attempted} attempted: "
                 f"{res['items']} items, {len(res['checks'])} checks)")
    for name, value in res["quality"].items():
        lines.append(f"  {name:<34} {value:>14.6f}       ({QUALITY[name]}; deterministic for the seed)")
    if not args.trace:
        lines.append("  setup_s samples: " + ", ".join(f"{s:.4f}" for s in res["setup_samples"]))
        lines.append(f"  {'complexity.flops_per_item':<34} {res['flops_per_item']:>14.6g} FLOP (analytic)")
    else:
        L = res["layers"]
        ratio = metrics["trace.selftime_vs_p50"]
        lines += [
            f"consistency: the wrapped layers' self times sum to {metrics['trace.selftime_sum_ms']:.3f} ms "
            f"per item (p50 over traced items, harness.unattributed_ms left out) against untraced "
            f"item_ms_p50 {res['item_ms_p50']:.3f} ms: ratio {ratio:.4f} "
            f"({'within' if abs(ratio - 1) <= 0.10 else 'OUTSIDE'} 10%)",
            f"tracing overhead: traced mean item {statistics.fmean(L['item_ms']):.3f} ms over untraced "
            f"mean item {res['item_ms_mean']:.3f} ms (base) = {metrics['trace.overhead_frac']:+.2%}",
            f"conv3d share of a traced item: {metrics['trace.conv3d_share']:.2%}",
        ]
        if L["conv3d_rows"]:
            lines.append("conv3d by cost_rows row (per item): fwd_ms bwd_ms GFLOP/s")
            for row, r in sorted(L["conv3d_rows"].items()):
                ms = r["fwd_ms"] + r["bwd_ms"]
                lines.append(f"    {row:<16} {r['fwd_ms']:9.3f} {r['bwd_ms']:9.3f} "
                             f"{r['flops'] / ms / 1e6 if ms else 0.0:9.3f}")
        lines.append("tensor.other by op (per item): fwd_ms bwd_ms")
        for op, r in sorted(L["other_ops"].items(), key=lambda kv: -kv[1]["fwd_ms"] - kv[1]["bwd_ms"]):
            lines.append(f"    {op:<20} {r['fwd_ms']:9.3f} {r['bwd_ms']:9.3f}")
        lines.append(f"spans written to {res['spans_file']}")
    lines.append("checks:")
    lines += [f"  {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}" for c in res["checks"]]
    lines += [f"  failed item: {f}" for f in res["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "metacross" / "__init__.py").is_file():
        print(f"error: no metacross sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res = worker(args.workload, args.seed, args.seconds, True)
            metrics, units = per_layer(res), PER_LAYER
        else:
            res, metrics = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = res["failed_items"] + sum(not c["passed"] for c in res["checks"])
    attempted = res["items"] + len(res["checks"])
    print("\n".join(report(args, res, metrics, units, failed, attempted)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
