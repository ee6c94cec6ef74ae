"""cli_batch: one `python -m toricglsm.cli <cmd> <file>` child per op.

Every op pays interpreter start, the package and numpy imports and JSON
I/O with cold caches, so start-up and import changes show here and
in-process caches show nothing.  All seven subcommands run, on fans given
by name and as JSON (transformed fans included), and a few inputs are
malformed or inadmissible and must end with exit code 1 and a message.
Input files are generated from the seed and written during set-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle
import wl_fan_survey
import wl_glsm_vacua
import wl_section_study

_CYCLE = (
    "fan-check:name", "cox:json", "delta-check:planted", "glsm-solve:kahler",
    "moduli-dim:sample", "collapse:ok", "fan-check:broken", "glsm-phase:kahler",
    "cox:name", "delta-check:malformed", "fan-check:json", "glsm-solve:outside",
    "cox:missing", "moduli-dim:inadmissible", "delta-check:inadmissible",
    "fan-check:nofield",
)
CYCLES_PER_20S = 3
_SMALL = ("P2", "F0", "F1", "F2", "F3", "P1xP1", "P3")
_NEF = {"P2": True, "F0": True, "F1": False, "F2": False, "F3": False, "F4": False,
        "P1xP1": True, "P3": True}


def n_ops(seconds):
    return max(11, round(len(_CYCLE) * CYCLES_PER_20S * seconds / 20))


def _rat(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fan_json(rays, cones):
    return json.dumps({"rays": [list(r) for r in rays], "max_cones": [list(c) for c in cones]})


def _collection_json(op):
    return json.dumps({
        "fan": op["fan"],
        "degrees": list(op["d"]),
        "sections": [oracle.format_form(u) for u in op["u"]],
        "trivializations": [_rat(t) for t in op["t"]],
    })


def _pick(names, i):
    return names[(i + i // len(_CYCLE)) % len(names)]


def _op(i, entry, rng):
    """Op i of the list.  Which fan an op uses depends on i only, so every
    seed runs the same mix; the seed draws the data."""
    cmd, _, kind = entry.partition(":")
    fname = f"in{i}.json"
    op = {"cmd": cmd, "kind": kind, "exit": 0}
    files = {}
    if cmd in ("fan-check", "cox"):
        name = _pick(_SMALL, i)
        rays, cones, _ = oracle.family(name)
        op.update(fan=name, rays=rays, cones=cones,
                  prim=oracle.primitive_collections(len(rays), cones))
        if kind == "name":
            arg = name
        else:
            arg = fname
            if kind == "json":
                rays, cones, relabel = wl_fan_survey._transform(rays, cones, rng)
                op.update(rays=rays, cones=cones,
                          prim={frozenset(relabel[i] for i in p) for p in op["prim"]})
                files[fname] = _fan_json(rays, cones)
            elif kind == "broken":
                defect = rng.choice(("overlap", "nonprimitive"))
                rays, cones, exp = wl_fan_survey._break(defect, rays, cones)
                op.update(issue=exp["issue"])
                files[fname] = _fan_json(*wl_fan_survey._transform(rays, cones, rng)[:2])
            elif kind == "missing":
                op["exit"] = 1
                files[fname] = _fan_json(rays, cones[:-1])
            else:  # nofield
                op["exit"] = 1
                files[fname] = json.dumps({"rays": [list(r) for r in rays]})
        op["args"] = [cmd, arg]
    elif cmd == "moduli-dim":
        name = _pick(("P2", "F1", "P1xP1", "P3"), i)
        rays, cones, q = oracle.family(name)
        d = wl_section_study._degree(rng, q)
        if kind == "inadmissible":
            d = (d[0] + 1,) + d[1:]
            op["exit"] = 1
        op.update(fan=name, rays=rays, cones=cones, d=d)
        op["args"] = [cmd, name, "--degree", ",".join(map(str, d))]
        if kind == "sample":
            op["args"] += ["--sample", "--seed", str(rng.randrange(1000)), "--bound", "3"]
    elif cmd in ("delta-check", "collapse"):
        name = _pick(("P2", "P1xP1") if cmd == "collapse" else ("P2", "F1", "P1xP1"), i)
        sub = wl_section_study._op(name, "planted" if cmd == "delta-check" else "collapse", rng)
        op.update(sub=sub)
        text = _collection_json(sub)
        if kind == "malformed":
            op["exit"] = 1
            text = text[: len(text) // 2]
        elif kind == "inadmissible":
            op["exit"] = 1
            bad = dict(json.loads(text))
            bad["degrees"] = [bad["degrees"][0] + 1] + bad["degrees"][1:]
            bad["sections"] = ["z0^%d" % x for x in bad["degrees"]]
            text = json.dumps(bad)
        elif cmd == "collapse":
            text = json.dumps({
                "main": json.loads(text),
                "attachments": [{"point": [_rat(p[0]), _rat(p[1])], "degree": list(e)}
                                for p, e in sub["atts"]],
            })
        files[fname] = text
        op["args"] = [cmd, fname]
    else:  # glsm-solve, glsm-phase
        fam = _pick(("P2", "P3", "F1", "F2", "P1xP1", "P2xP2"), i)
        sub = wl_glsm_vacua._op(fam, kind, rng)
        op.update(sub=sub)
        files[fname] = json.dumps({
            "charges": [list(r) for r in sub["q"]],
            "fi": [_rat(x) for x in sub["fi"]],
            "amplitudes": [_rat(x) for x in sub["amps"]],
        })
        op["args"] = [cmd, fname]
    op["files"] = files
    return op


def generate(seed, n):
    rng = random.Random(f"cli_batch:{seed}")
    return [_op(i, _CYCLE[i % len(_CYCLE)], rng) for i in range(n)]


def warmup(seed):
    op = _op(0, "fan-check:name", random.Random(f"cli_batch-warmup:{seed}"))
    return dict(op, args=["fan-check", "F4"], fan="F4", rays=oracle.hirzebruch(4)[0])


def summary(op):
    return "toricglsm " + " ".join(op["args"]) + f" ({op['kind']})"


def check(op, ans, tg=None):
    """ans: {"code", "stdout", "stderr"} of the child."""
    if ans["code"] != op["exit"]:
        return f"exit code {ans['code']}, expected {op['exit']}: {ans['stderr'][-300:]}"
    if op["exit"] == 1:
        if ans["stdout"] or not ans["stderr"].startswith("error:"):
            return "exit 1 without an `error:` message alone"
        return None
    out = json.loads(ans["stdout"])
    cmd = op["cmd"]
    if cmd == "fan-check":
        if "issue" in op:
            ok = out["valid"] is False and any(op["issue"] in i for i in out["issues"])
            return None if ok else f"broken fan not reported: {out}"
        n = len(op["rays"])
        want = {"valid": True, "smooth": True, "complete": True, "nef_proxy": _NEF[op["fan"]]}
        if any(out[k] != v for k, v in want.items()) or len(out["nef_per_divisor"]) != n:
            return f"fan-check payload {out}"
        return None
    if cmd == "cox":
        return wl_fan_survey.cox_check(op["rays"], op["cones"], op["prim"], {
            "Q": out["charge_matrix"], "pic_rank": out["pic_rank"],
            "prim": out["primitive_collections"], "irrelevant": out["irrelevant_generators"]})
    if cmd == "moduli-dim":
        d, n, dim = op["d"], len(op["rays"]), len(op["rays"][0])
        y = sum(x + 1 for x in d)
        if (out["y_dim"], out["g_dim"], out["w_dim"]) != (y, n - dim, y - n + dim):
            return f"dimension counts {out}"
        u = [oracle.parse_form(s, x) for s, x in zip(out["sample"]["sections"], d)]
        return None if oracle.nonvanishing(op["cones"], n, u) else "sample in the excluded locus"
    if cmd in ("delta-check", "collapse"):
        sub = op["sub"]
        atts = sub.get("atts", [])
        points = [pts + sum(([p] * e[i] for p, e in atts), []) for i, pts in enumerate(sub["points"])]
        roots = oracle.base_points(sub["cones"], len(sub["rays"]), points)
        want = oracle.from_points(1, [p for p, m in roots.items() for _ in range(m)])
        base = oracle.parse_form(out["base_divisor"], len(want) - 1)
        if not oracle.proportional(want, base):
            return f"base divisor {out['base_divisor']} does not vanish exactly at {roots}"
        if cmd == "delta-check":
            return None if out["nondegenerate"] == (not roots) else "nondegeneracy verdict"
        total = tuple(len(p) for p in points)
        if tuple(out["total_degree"]) != total:
            return "collapsed total degree"
        got = [oracle.parse_form(s, x) for s, x in zip(out["collection"]["sections"], total)]
        return None if all(oracle.proportional(oracle.from_points(1, p), g)
                           for p, g in zip(points, got)) else "collapsed sections"
    sub = op["sub"]
    if cmd == "glsm-phase":
        sets = {frozenset(s) for s in out["minimal_unstable_sets"]}
        return None if sets == sub["sets"] else f"unstable sets {sorted(map(sorted, sets))}"
    # glsm-solve prints no verdict: hold the Kempf-Ness status to the expected one
    ans_like = {"verdict": sub["expect"], "status": out["status"], "t": out["t"],
                "iterations": out["iterations"], "recession": out["recession_direction"],
                "sets": []}
    return wl_glsm_vacua.check({k: v for k, v in sub.items() if k != "sets"}, ans_like)


def corrupt(op, ans):
    """Flip one sign of a printed charge matrix (oracle self-test)."""
    out = json.loads(ans["stdout"])
    row = out["charge_matrix"][0]
    j = next(j for j, x in enumerate(row) if x)
    row[j] = -row[j]
    return dict(ans, stdout=json.dumps(out))
