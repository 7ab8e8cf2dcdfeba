"""One workload in one process: set-up, timed closed loop, checks, one JSON line.

Started by ``run.py``; not meant to be run by hand. ``--t0`` is the launcher's
``time.monotonic()`` just before it started this process, so set-up time
counts from process start and includes interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import metacross  # noqa: E402
from stats import TAIL_SAMPLES, latency_summary, min_samples  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

MIN_ITEMS = min_samples(0.9, TAIL_SAMPLES)
OUT = HERE / "out"


def blas_runtime() -> dict:
    """BLAS build and the thread count the loaded OpenBLAS reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    # wheels bundle OpenBLAS next to the package; CDLL returns the copy already loaded
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["blas_threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, **blas_runtime(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed}


def gemm_peak_gflops(n: int = 512, repeats: int = 7) -> float:
    """Best-of float64 n x n matmul rate at the process's BLAS thread count."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n ** 3 / best / 1e9


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("sid\tname\tparent\towner\tstart_ns\tend_ns\titem\ttag\n")
        for rec in tracer.table().tolist():
            rec[1] = tracer.names[rec[1]]
            rec[7] = "" if rec[7] < 0 else "/".join(str(x) for x in tracer.tags[rec[7]])
            fh.write("\t".join(str(x) for x in rec) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, t0: float,
        setup_only: bool = False, max_items: int | None = None) -> dict:
    """Set up, then run whole episodes until ``seconds`` and MIN_ITEMS are reached.

    Stopping only between episodes keeps the mix of item kinds the same
    whatever the speed of the code. With ``trace`` the tracer is in place
    during set-up and around every other item, alternating which items by
    episode, so traced and untraced items of the same run sample the same
    machine state. ``max_items`` (tests only) stops after that many items,
    even inside an episode; the quality checks then do not run.
    """
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    wl = WORKLOADS[workload](seed)
    if tracer:
        tracer.map_conv_rows(wl.model, wl.conv_modules())
        tracer.uninstall()
    wl.start_episode()
    setup_s = time.monotonic() - t0
    result = {"workload": workload, "seed": seed, "setup_s": setup_s}
    if setup_only:
        return result

    item_ns: list[int] = []  # untraced items
    traced_ns: list[int] = []
    failures: list[str] = []
    qualities: list[dict] = []
    k = 0
    n_plan = len(wl.plan)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and (k + len(qualities)) % 2 == 1
        if traced:
            tracer.install()
        a = time.perf_counter_ns()
        try:
            if traced:
                tracer.run_item(len(traced_ns), wl.item, k)
            else:
                wl.item(k)
        except Exception as exc:  # a failed item is counted, and the loop goes on
            failures.append(f"item {len(item_ns) + len(traced_ns)}: {type(exc).__name__}: {exc}")
        b = time.perf_counter_ns()
        if traced:
            tracer.uninstall()
        (traced_ns if traced else item_ns).append(b - a)
        k += 1
        if k == n_plan:
            qualities.append(wl.quality())
            wl.start_episode()
            k = 0
        if max_items is not None:
            if len(item_ns) + len(traced_ns) >= max_items:
                break
        elif k == 0 and time.perf_counter() - start >= seconds and len(item_ns) >= MIN_ITEMS:
            break
    wall_s = time.perf_counter() - start
    whole = bool(qualities)
    if not whole:  # only a max_items run can stop inside its first episode
        qualities.append(wl.quality())

    checks: list[Check] = []
    try:
        checks.extend(wl.checks())
        if whole:
            checks.extend(wl.quality_checks(qualities[0]))
    except Exception as exc:  # a check that cannot run has failed
        checks.append(Check("workload_checks", False, f"{type(exc).__name__}: {exc}"))
    repeat = all(q == qualities[0] for q in qualities)
    checks.append(Check("quality_repeats", repeat,
                        f"{len(qualities)} episode(s) of {n_plan} items"
                        f"{', items alternately traced' if tracer else ''}; "
                        f"{wl.quality_name} {'identical' if repeat else 'DIFFERS'} across them"))

    item_ms = [ns / 1e6 for ns in item_ns]
    result.update(latency_summary(item_ms))
    result.update({
        "items": len(item_ms) + len(traced_ns), "failed_items": len(failures), "failures": failures[:5],
        "wall_s": wall_s, "items_per_s": (len(item_ms) + len(traced_ns)) / wall_s,
        "item_ms_mean": float(np.mean(item_ms)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "episode_items": n_plan, "episodes": len(qualities), "quality": qualities[0],
        "checks": [vars(c) for c in checks], "env": environment(seed),
        "flops_per_item": wl.flops_per_item(),
    })
    if tracer:
        result["layers"] = summarize(tracer, len(traced_ns))
        result["layers"]["gemm_peak_gflops"] = gemm_peak_gflops()
        spans = OUT / f"spans_{workload}_seed{seed}.tsv.gz"
        write_spans(tracer, spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(metacross.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"metacross imported from {metacross.__file__}, not from this checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.t0, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
