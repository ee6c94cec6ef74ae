"""toricglsm benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Each run first fills its own bytecode cache (prime).  --trace 0 prints
the end-to-end metrics: set-up is measured in SETUP_PROBES extra workload
processes plus the timed one (median), then the timed process runs the
fixed op list.  --trace 1 runs the same list untraced and
then traced, and prints the per-layer metrics.  Every timing is printed raw
and reference-scaled; failed ops are listed with the seed and op index that
reproduce them.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import common
import tracer

SETUP_PROBES = 6
WORKER = common.ROOT / "perfbench" / "worker.py"

END_TO_END = {
    "ops_per_s": "1/s", "raw_ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio",
}


def prime(args):
    """Build the run's bytecode cache (common.PYCACHE) before any timed
    process starts: compile the package and the benchmark, then make one
    untimed set-up pass, which compiles what else the children import."""
    shutil.rmtree(common.WORK, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(common.SRC),
                    str(common.ROOT / "perfbench")],
                   env=common.child_env(), stdout=subprocess.DEVNULL, check=True, timeout=170)
    spawn(args, trace=args.trace, setup_only=True)


def spawn(args, trace=0, setup_only=False):
    """Run one workload process; returns its result with setup_s added."""
    before = common.ref_sample()
    t0 = common.now()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=common.child_env(), capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: workload process exited with {proc.returncode}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup_scaled"] = res["setup_raw"] * common.scale_factor(before, res["ref0"])
    return res


def end_to_end(res, setups):
    secs, factors = res["seconds"], res["factors"]
    scaled = [s * f for s, f in zip(secs, factors)]
    n = len(secs)
    tail_ms, pct = common.tail(scaled)
    raw_tail_ms, _ = common.tail(secs)
    m = {
        "ops_per_s": n / sum(scaled),
        "raw_ops_per_s": n / sum(secs),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "setup_s": statistics.median(s["setup_scaled"] for s in setups),
        "peak_rss_mb": res["rss_mb"],
        "ops_ok_ratio": (n - len(res["failed"])) / n,
    }
    raw = {
        "op_p50_ms": statistics.median(secs) * 1e3,
        "op_tail_ms": raw_tail_ms * 1e3,
        "setup_s": statistics.median(s["setup_raw"] for s in setups),
        "ops_per_s": m["raw_ops_per_s"],
    }
    return m, raw, pct


def print_ledger(args, res):
    if res["warmup_failed"]:
        print(f"warm-up op (not timed, not counted) failed: {res['warmup_failed']}")
    failed = res["failed"]
    print(f"failed ops: {len(failed)} of {len(res['seconds'])}")
    for f in failed:
        print(f"  FAILED workload={args.workload} seed={args.seed} op={f['index']} "
              f"input: {f['input']} reason: {f['reason']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common.require_program()
    try:
        prime(args)
        if args.trace:
            result = traced(args)
        else:
            result = untraced(args)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    print(json.dumps(result))


def untraced(args):
    setups = [spawn(args, setup_only=True) for _ in range(SETUP_PROBES)]
    res = spawn(args)
    setups.append(res)
    m, raw, pct = end_to_end(res, setups)
    refs = res["refs"]
    print(f"workload {args.workload} seed {args.seed}: {len(res['seconds'])} ops, "
          f"closed loop, one client")
    print(f"reference kernel: median {statistics.median(refs) * 1e3:.4f} ms over {len(refs)} "
          f"samples (nominal {common.NOMINAL_REF_S * 1e3:.4f} ms)")
    for name, unit in END_TO_END.items():
        line = f"  {name:<14} {m[name]:>12.6g} {unit}"
        if name in raw:
            line += f"   raw {raw[name]:.6g} {unit}"
        if name == "op_tail_ms":
            line += f"   at p{pct:.1f} of {len(res['seconds'])} ops (10 beyond)"
        print(line)
    print_ledger(args, res)
    print("raw-metrics " + json.dumps(raw))
    wrong = [f for f in res["failed"] if not f["reason"].startswith(common.NO_ANSWER)]
    return {
        "correct": not wrong,
        "attempted": len(res["seconds"]),
        "failed": len(res["failed"]),
        "metrics": {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()},
    }


def traced(args):
    plain = spawn(args)
    res = spawn(args, trace=1)
    layers = res["layers"]
    plain_wall = sum(s * f for s, f in zip(plain["seconds"], plain["factors"]))
    traced_wall = sum(s * f for s, f in zip(res["seconds"], res["factors"]))
    layers["trace_overhead_ratio"] = traced_wall / plain_wall
    print(f"workload {args.workload} seed {args.seed}: traced run of {len(res['seconds'])} ops")
    for name, unit in tracer.PER_LAYER.items():
        print(f"  {name:<30} {layers[name]:>14.6g} {unit}")
    if [f["index"] for f in plain["failed"]] != [f["index"] for f in res["failed"]]:
        print("traced and untraced runs failed different ops")
    print_ledger(args, res)
    wrong = [f for f in res["failed"] if not f["reason"].startswith(common.NO_ANSWER)]
    return {
        "correct": not wrong,
        "attempted": len(res["seconds"]),
        "failed": len(res["failed"]),
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in tracer.PER_LAYER.items()},
    }


if __name__ == "__main__":
    main()
