"""Run-to-run spread of the end-to-end metrics, raw and scaled side by side.

    python3 perfbench/steadiness.py

Runs `run.py --trace 0` once per seed 1-10 and workload, one after another,
and prints, per workload and metric, the median and the interquartile distance
as a share of the median (statistics.quantiles, n=4) -- the spread the
benchmark's bounds are held to.  Raw (unscaled) timings are shown next to
the scaled ones.  The table also goes to .perfbench_out/steadiness.md.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import common

RUN = common.ROOT / "perfbench" / "run.py"
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(next(l for l in lines if l.startswith("raw-metrics "))[len("raw-metrics "):])
    return result, raw


def main():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = [f"seeds {SEEDS[0]}-{SEEDS[-1]}, --seconds {bench['run_seconds']}", "",
           "| workload | metric | median | spread | raw median | raw spread | bound | failed ops |",
           "|---|---|---|---|---|---|---|---|"]
    for w in common.WORKLOADS:
        runs = [run_once(w, s, bench["run_seconds"]) for s in SEEDS]
        failed = [r["failed"] for r, _ in runs]
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            row = [w, name, f"{statistics.median(vals):.5g}", f"{common.spread(vals):.3f}"]
            if name in runs[0][1]:
                raw = [r[name] for _, r in runs]
                row += [f"{statistics.median(raw):.5g}", f"{common.spread(raw):.3f}"]
            else:
                row += ["", ""]
            row += [str(bound), ",".join(map(str, failed))]
            out.append("| " + " | ".join(row) + " |")
            print(out[-1], flush=True)
    common.OUT.mkdir(exist_ok=True)
    (common.OUT / "steadiness.md").write_text("\n".join(out) + "\n")
    print("\n".join(out))


if __name__ == "__main__":
    main()
