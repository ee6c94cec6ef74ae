"""Reference-speed scaling, run layout and statistics shared by every part of
the benchmark.

Timings on a shared 2-core machine drift by tens of percent within one run
because other tenants take the CPU.  Each stretch of op time is therefore
bracketed by samples of a fixed pure-Python reference kernel (no toricglsm
code) and reported as if the machine ran the kernel in NOMINAL_REF_S:

    scaled = raw * NOMINAL_REF_S / mean(reference sample before, after)

NOMINAL_REF_S is a constant of the benchmark.  It is never re-fitted: a
later change that re-fits it would move every scaled number at once.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scratch files of one run; removed at its end
OUT = ROOT / ".perfbench_out"  # span dumps of traced runs and steadiness logs
# Bytecode of every module the children import, built afresh by each run
# (PYTHONPYCACHEPREFIX): children read bytecode as an installed CLI does, and
# whatever __pycache__ directories other tools left in the checkout are ignored.
PYCACHE = WORK / "pycache"

WORKLOADS = ("fan_survey", "section_study", "glsm_vacua", "cli_batch")

# Seconds one reference-kernel call takes on the nominal machine.  Set once
# from the median on a 2-core Linux VM (Python 3.11.7); see README.md.
NOMINAL_REF_S = 0.003

NO_ANSWER = "no answer: "  # prefix of a failed op that gave no (rather than a wrong) answer

REF_CALLS = 31  # one reference sample = median of this many kernel calls
STRETCH_S = 1.0  # op time between two reference samples (at least one op)


def child_env(extra=None):
    """Environment for workload processes and CLI children."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # run.prime's untimed pass writes PYCACHE
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(PYCACHE),
        PYTHONPATH=str(SRC),
    )
    if extra:
        env.update(extra)
    return env


def require_program():
    """Exit with a message when the checkout holds no toricglsm sources."""
    if not (SRC / "toricglsm" / "__init__.py").is_file():
        print(f"perfbench: no toricglsm sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def now():
    # CLOCK_MONOTONIC is system-wide, so a parent and its child can share it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_REF_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7))
    for i in range(7)
)


def _ref_kernel():
    """Fixed work of the kind toricglsm does: Fraction elimination plus
    tuple/dict churn.  Shares no code with the package."""
    det = Fraction(1)
    for shift in range(2):
        a = [list(r[shift:] + r[:shift]) for r in _REF_MATRIX]
        n = len(a)
        for c in range(n):
            p = next((r for r in range(c, n) if a[r][c] != 0), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            det *= a[c][c]
            for r in range(c + 1, n):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    seen = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + i
    return det, len(seen)


def ref_sample():
    """Median seconds of REF_CALLS reference-kernel calls.  The cyclic
    garbage collector is paused meanwhile, so that the kernel's time does
    not depend on how much the workload has allocated."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REF_CALLS):
            t0 = time.perf_counter()
            _ref_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale_factor(ref_before, ref_after):
    return NOMINAL_REF_S / ((ref_before + ref_after) / 2)


def tail(values):
    """(value, percentile) at the highest percentile with at least 10 values
    strictly beyond it; for fewer than 11 values, the maximum."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0) if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
