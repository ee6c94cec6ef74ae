"""Self-tests of the benchmark itself: `python3 perfbench/selftest.py`.

1. Tracer coverage: on a small P2/F1 op list, the traced call counts of
   validate_fan, smith_normal_form, ratlp.feasible and forms.gcd equal an
   independent sys.setprofile count, and traced answers equal untraced ones.
2. Oracles: each workload's check rejects a deliberately corrupted answer
   (a flipped charge-matrix sign, a wrong base-divisor root, a swapped
   stability verdict, a flipped sign in CLI output).
3. Generators: one seed gives byte-identical inputs in two processes with
   different hash seeds.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common
import worker

FAILURES = []


def report(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def _canon(ans):
    return repr({k: v for k, v in ans.items() if k not in ("data", "collection")})


def tracer_coverage(tg):
    import tracer as tracer_mod
    import wl_fan_survey
    import wl_section_study

    fans = [op for op in wl_fan_survey.generate(3, 38) if op["base"] in ("P2", "F1")]
    sections = [op for op in wl_section_study.generate(3, 38) if op["fan"] in ("P2", "F1")]
    work = [(wl_fan_survey, op) for op in fans] + [(wl_section_study, op) for op in sections]

    cached = [obj for name in tracer_mod.MODULES for obj in vars(getattr(tg, name)).values()
              if hasattr(obj, "cache_clear")]

    def run_all(tracer):
        for obj in cached:  # both runs start cold, so they make the same calls
            obj.cache_clear()
        answers = []
        for i, (wl, op) in enumerate(work):
            runner = worker.Runner(wl, tg, tracer, None)
            _, ans = runner.run(op, i)
            answers.append((runner.judge(op, ans), _canon(ans)))
        return answers

    plain = run_all(None)
    report(all(reason is None for reason, _ in plain), "untraced P2/F1 ops pass their oracles")

    watched = {
        "fan.validate_fan": tg.fan.validate_fan.__code__,
        "lattice.smith_normal_form": tg.lattice.smith_normal_form.__code__,
        "ratlp.feasible": tg.ratlp.feasible.__code__,
        "forms.gcd": tg.forms.gcd.__code__,
    }
    by_code = {code: label for label, code in watched.items()}
    counted = dict.fromkeys(watched, 0)

    def profile(frame, event, arg):
        if event == "call" and tr.op is not None and frame.f_code in by_code:
            counted[by_code[frame.f_code]] += 1

    tr = tracer_mod.Tracer()
    tr.install()
    sys.setprofile(profile)  # counts only while an op is in flight, as the tracer does
    try:
        traced = run_all(tr)
    finally:
        sys.setprofile(None)
    calls = {}
    for name, _, _, _, op in tr.spans:
        if op is not None:
            calls[name] = calls.get(name, 0) + 1
    for label in watched:
        got = calls.get(label, 0)
        report(got == counted[label] and got > 0,
               f"traced {label} calls {got} == sys.setprofile count {counted[label]}")
    report(traced == plain, "traced answers equal untraced answers")


def oracles(tg):
    import wl_cli_batch
    import wl_fan_survey
    import wl_glsm_vacua
    import wl_section_study

    cases = [
        (wl_fan_survey, next(op for op in wl_fan_survey.generate(4, 38) if op["base"] == "F1")),
        (wl_section_study, next(op for op in wl_section_study.generate(4, 38)
                                if op["kind"] == "planted")),
        (wl_glsm_vacua, wl_glsm_vacua.generate(4, 4)[1]),
        (wl_cli_batch, next(op for op in wl_cli_batch.generate(4, 16) if op["cmd"] == "cox")),
    ]
    for wl, op in cases:
        with tempfile.TemporaryDirectory(dir=common.WORK) as tmp:
            runner = worker.Runner(wl, tg, None, Path(tmp))
            runner.prepare([op])
            _, ans = runner.run(op, 0)
        report(runner.judge(op, ans) is None, f"{wl.__name__}: true answer accepted")
        report(runner.judge(op, wl.corrupt(op, ans)) is not None,
               f"{wl.__name__}: corrupted answer rejected ({wl.corrupt.__doc__.strip()})")


_DIGEST = """
import hashlib, importlib, sys
sys.path.insert(0, {here!r})
for name in {names!r}:
    wl = importlib.import_module("wl_" + name)
    print(name, hashlib.sha256(repr(wl.generate(11, wl.n_ops(20))).encode()).hexdigest())
"""


def generators():
    code = _DIGEST.format(here=str(Path(__file__).parent), names=common.WORKLOADS)
    outs = []
    for hashseed in ("1", "2"):
        env = common.child_env({"PYTHONHASHSEED": hashseed})
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout.split("\n"))
    for a, b in zip(*outs):
        if a:
            report(a == b, f"byte-identical inputs for seed 11: {a.split()[0]}")


def main():
    common.require_program()
    tg = worker._load_package()
    common.WORK.mkdir(exist_ok=True)
    try:
        generators()
        oracles(tg)
        tracer_coverage(tg)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
