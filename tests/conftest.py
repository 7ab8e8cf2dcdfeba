"""Shared fixtures and the acceptance-summary hook.

The expensive artifacts (one full scenario sweep, one trained probe) are
session fixtures so several acceptance criteria can share them. Each
acceptance test records a verdict; the terminal summary prints one
pass/fail line per criterion after the run.
"""

import time

import pytest

from metacross.configfile import validate_config
from metacross.harness import run_probe, run_sweep

# criterion id -> (passed, detail); populated by tests/test_acceptance.py
ACCEPTANCE: dict[int, tuple[bool, str]] = {}
SELECTED: set[str] = set()  # names of the tests this session runs

CRITERIA = {
    1: "masked attention exactness over all availability patterns",
    2: "masked softmax equals the dense softmax on the available subset",
    3: "missing modalities are bitwise isolated from the output",
    4: "analytic gradients match finite differences below 1e-4",
    5: "attention flop ratio and bottleneck cost reductions",
    6: "neutral modulation is exact identity; worked example",
    7: "training descends and full availability wins the sweep",
    8: "metadata shuffling drops probe accuracy with confidence",
    9: "sweep and complexity artifacts are byte-identical on rerun",
}


def record(criterion: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[criterion] = (bool(passed), detail)


@pytest.fixture(scope="session")
def sweep_run():
    """Full 15-scenario sweep at the default configuration, seed 0."""
    values = validate_config({}, "seg")
    start = time.perf_counter()
    sweep = run_sweep(values)
    return values, sweep, time.perf_counter() - start


@pytest.fixture(scope="session")
def probe_run():
    """Trained 2D classifier and its permutation probe, default config."""
    values = validate_config({}, "cls")
    start = time.perf_counter()
    probe = run_probe(values)
    return values, probe, time.perf_counter() - start


def pytest_collection_finish(session):
    SELECTED.update(item.name for item in session.items)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for cid in sorted(CRITERIA):
        if cid in ACCEPTANCE:
            passed, detail = ACCEPTANCE[cid]
            verdict = "PASS" if passed else "FAIL"
        elif not any(name.startswith(f"test_criterion_{cid}_") for name in SELECTED):
            verdict, detail = "NOT RUN", "deselected in this session"
        else:
            verdict, detail = "FAIL", "test did not run to completion"
        tr.write_line(f"[criterion {cid}] {verdict}  {CRITERIA[cid]}: {detail}")
