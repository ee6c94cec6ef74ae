"""One workload process: set up, warm up, run the fixed op list, report.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC_SECONDS [--setup-only]

Set-up (imports, input generation, one warm-up op on an input outside the
timed list, gc.collect) ends where the timed phase begins.  The timed
phase runs every op of the list to completion with no deadline, one at a
time, and takes a reference sample after each stretch of about STRETCH_S
of op time.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common


def _load_package():
    sys.path.insert(0, str(common.SRC))
    import toricglsm

    for name in ("fan", "cox", "lattice", "ratlp", "forms", "delta", "moduli", "collapse",
                 "glsm", "jsonio", "cli"):
        importlib.import_module("toricglsm." + name)
    if Path(toricglsm.__file__).resolve().parent != (common.SRC / "toricglsm").resolve():
        sys.exit(f"perfbench: imported toricglsm from {toricglsm.__file__}, not {common.SRC}")
    return toricglsm


class Runner:
    """Runs one op and judges its answer."""

    def __init__(self, wl, tg, tracer, workdir):
        self.wl, self.tg, self.tracer, self.workdir = wl, tg, tracer, workdir
        self.cli = wl.__name__ == "wl_cli_batch"
        self.child_import_s = {}
        self.child_wall_s = {}

    def prepare(self, ops):
        for op in ops:
            for name, text in op.get("files", {}).items():
                (self.workdir / name).write_text(text)

    def run(self, op, index):
        """(raw seconds, answer) for one op."""
        if self.cli:
            return self._run_child(op, index)
        if self.tracer and index is not None:
            self.tracer.begin(index)
        t0 = time.perf_counter()
        try:
            ans = self.wl.run(self.tg, op)
        except Exception as exc:  # an op that raises is judged, not fatal
            ans = {"raised": type(exc).__name__, "message": str(exc)}
        dt = time.perf_counter() - t0
        if self.tracer and index is not None:
            self.tracer.end()
        return dt, ans

    def _run_child(self, op, index):
        if self.tracer:
            out = self.workdir / f"trace{index}.json"
            cmd = [sys.executable, str(common.ROOT / "perfbench" / "cli_launcher.py")]
            env = common.child_env({"PERFBENCH_TRACE_OUT": str(out)})
        else:
            cmd, env = [sys.executable, "-m", "toricglsm.cli"], common.child_env()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + op["args"], cwd=self.workdir, env=env,
                              capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if self.tracer and index is not None:
            spans, times = map(json.loads, out.read_text().splitlines())
            self.tracer.merge(spans, index)
            self.child_import_s[index] = times["import_s"]
            self.child_wall_s[index] = dt - times["overhead_s"]
        return dt, {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def judge(self, op, ans):
        """None when the answer passes the oracle, else the reason."""
        if op.get("reject"):
            ok = ans.get("raised") == "ValueError"
            return None if ok else f"expected a ValueError, got {ans}"
        if "raised" in ans:
            return f"raised {ans['raised']}: {ans['message']}"
        try:
            return self.wl.check(op, ans, self.tg)
        except Exception as exc:  # a malformed answer the oracle cannot read
            return f"answer unreadable by the oracle: {type(exc).__name__}: {exc}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="spawn time (CLOCK_MONOTONIC)")
    args = ap.parse_args()

    common.require_program()
    tg = _load_package()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    wl = importlib.import_module("wl_" + args.workload)
    ops = wl.generate(args.seed, wl.n_ops(args.seconds))
    warm = wl.warmup(args.seed)
    common.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK))
    try:
        runner = Runner(wl, tg, tracer, workdir)
        runner.prepare(ops + [warm])
        _, ans = runner.run(warm, None)
        warm_reason = runner.judge(warm, ans)
        gc.collect()
        t_ready = common.now()
        ref = common.ref_sample()
        result = {"setup_raw": t_ready - args.t0, "ref0": ref, "warmup_failed": warm_reason}
        if not args.setup_only:
            result.update(_timed(runner, ops, ref, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if runner.cli else resource.RUSAGE_SELF
    result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result))


def _timed(runner, ops, ref, args):
    n = len(ops)
    seconds, factors, reasons = [0.0] * n, [0.0] * n, [None] * n
    refs = [ref]
    i = 0
    while i < n:
        batch, acc = [], 0.0
        while i < n and (not batch or acc < common.STRETCH_S):
            dt, ans = runner.run(ops[i], i)
            batch.append((i, ans))
            seconds[i] = dt
            acc += dt
            i += 1
        refs.append(common.ref_sample())
        f = common.scale_factor(refs[-2], refs[-1])
        for j, ans in batch:  # judged after the closing reference sample
            factors[j] = f
            reasons[j] = runner.judge(ops[j], ans)
    failed = [
        {"index": j, "input": runner.wl.summary(ops[j]), "reason": r}
        for j, r in enumerate(reasons) if r is not None
    ]
    out = {"seconds": seconds, "factors": factors, "refs": refs, "failed": failed}
    if runner.tracer:
        import tracer as tracer_mod

        cli = None
        if runner.cli:
            cli = {"process": [runner.child_wall_s[j] for j in range(n)],
                   "imports": [runner.child_import_s[j] for j in range(n)]}
        out["layers"] = tracer_mod.layer_metrics(runner.tracer, factors, seconds, refs, cli)
        common.OUT.mkdir(exist_ok=True)
        runner.tracer.write(common.OUT / f"spans-{args.workload}-{args.seed}.json")
    return out


if __name__ == "__main__":
    main()
