"""Command-line front end: file-based, deterministic, batch-oriented.

Exit codes: 0 success, 1 bad input data, 2 usage error.  Every bad input,
unreadable file or unwritable output is reported by `main` alone, as one
`error: <source>: <message>` line on stderr with stdout left empty.
JSON output is strict, with sorted keys: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cox as cox_mod
from . import delta as delta_mod
from . import fan as fan_mod
from . import glsm as glsm_mod
from . import jsonio
from . import moduli as moduli_mod
from .collapse import collapse as run_collapse
from .forms import format_form


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _emit(payload, args, text_renderer):
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        out = text_renderer(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def cmd_fan_check(args):
    f = jsonio.fan_from_dict(_load_json_or_name(args.source))
    report = fan_mod.validate_fan(f)
    payload = {
        "valid": report.ok,
        "issues": list(report.issues),
        "smooth": None,
        "complete": None,
        "nef_proxy": None,
    }
    if report.ok:
        payload["smooth"] = fan_mod.is_smooth(f)
        if payload["smooth"]:
            payload["complete"] = fan_mod.is_complete(f)
            if payload["complete"]:
                nef, per = fan_mod.prime_divisors_nef(f)
                payload["nef_proxy"] = nef
                payload["nef_per_divisor"] = list(per)
    _emit(payload, args, _render_fan_check)


def _render_fan_check(p):
    lines = [f"valid: {_yn(p['valid'])}"]
    for issue in p["issues"]:
        lines.append(f"  issue: {issue}")
    for key in ("smooth", "complete"):
        if p[key] is not None:
            lines.append(f"{key}: {_yn(p[key])}")
    if p["nef_proxy"] is not None:
        lines.append(f"convexity proxy (all prime divisors nef): {_yn(p['nef_proxy'])}")
    return "\n".join(lines) + "\n"


def _yn(b):
    return "yes" if b else "no"


def _load_json_or_name(arg):
    # fan arguments accept either a JSON file path or a built-in fan name
    if arg.endswith(".json"):
        return _load_json(arg)
    return arg


def cmd_cox(args):
    f = jsonio.fan_from_dict(_load_json_or_name(args.source))
    pres = cox_mod.cox_presentation(f)
    payload = {
        "pic_rank": pres.pic_rank,
        "charge_matrix": pres.charge_matrix.to_rows(),
        "irrelevant_generators": [list(g) for g in pres.irrelevant_generators],
        "primitive_collections": [list(p) for p in pres.primitive_collections],
    }
    _emit(payload, args, _render_cox)


def _render_cox(p):
    lines = [f"Picard rank: {p['pic_rank']}", "charge matrix:"]
    lines += ["  " + " ".join(f"{x:4d}" for x in row) for row in p["charge_matrix"]]
    lines.append("irrelevant-ideal generator supports: " + _sets(p["irrelevant_generators"]))
    lines.append("primitive collections: " + _sets(p["primitive_collections"]))
    return "\n".join(lines) + "\n"


def _sets(ss):
    return " ".join("{" + ",".join(map(str, s)) + "}" for s in ss)


def _parse_degree(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad degree vector {text!r}: expected comma-separated integers") from None


def cmd_moduli_dim(args):
    f = jsonio.fan_from_dict(_load_json_or_name(args.source))
    d = _parse_degree(args.degree)
    summary = moduli_mod.summarize(f, d)
    payload = {
        "degree": list(summary.degree),
        "y_dim": summary.y_dim,
        "g_dim": summary.g_dim,
        "w_dim": summary.w_dim,
        "w_dim_note": "orbit-space dimension assuming generically trivial stabilizer",
    }
    if args.sample:
        c = moduli_mod.sample(f, d, args.seed, args.bound)
        payload["sample"] = jsonio.collection_to_dict(c)
    _emit(payload, args, _render_moduli)


def _render_moduli(p):
    lines = [
        f"degree: {p['degree']}",
        f"section-space dim: {p['y_dim']}",
        f"gauge-torus dim: {p['g_dim']}",
        f"quotient dim (naive): {p['w_dim']}",
    ]
    if "sample" in p:
        lines.append("sample sections: " + "; ".join(p["sample"]["sections"]))
    return "\n".join(lines) + "\n"


def cmd_delta_check(args):
    c = jsonio.collection_from_dict(_load_json(args.source))
    nonvan = delta_mod.is_nonvanishing(c)
    payload = {
        "nonvanishing": nonvan,
        "nondegenerate": None,
        "base_divisor": None,
        "in_excluded_locus": not nonvan,
    }
    if nonvan:
        bd = delta_mod.base_divisor(c)
        payload["nondegenerate"] = bd.degree == 0
        payload["base_divisor"] = format_form(bd)
    _emit(payload, args, _render_delta)


def _render_delta(p):
    lines = [f"nonvanishing: {_yn(p['nonvanishing'])}"]
    if p["nondegenerate"] is not None:
        lines.append(f"nondegenerate: {_yn(p['nondegenerate'])}")
        lines.append(f"base divisor: {p['base_divisor']}")
    return "\n".join(lines) + "\n"


def cmd_collapse(args):
    result = run_collapse(jsonio.stable_map_from_dict(_load_json(args.source)))
    bd = delta_mod.base_divisor(result.collection)
    payload = {
        "collection": jsonio.collection_to_dict(result.collection),
        "total_degree": list(result.total_degree),
        "base_divisor": format_form(bd),
    }
    _emit(payload, args, _render_collapse)


def _render_collapse(p):
    lines = [
        "sections: " + "; ".join(p["collection"]["sections"]),
        f"total degree: {p['total_degree']}",
        f"base divisor: {p['base_divisor']}",
    ]
    return "\n".join(lines) + "\n"


def cmd_glsm_solve(args):
    prob = jsonio.glsm_from_dict(_load_json(args.source))
    report = glsm_mod.kempf_ness_solve(prob, tol=args.tol, max_iter=args.max_iter)
    payload = {
        "status": report.status,
        "t": list(report.t) if report.t is not None else None,
        "gradient_norm": report.gradient_norm if math.isfinite(report.gradient_norm) else None,
        "iterations": report.iterations,
        "recession_direction": (
            list(report.recession_direction)
            if report.recession_direction is not None
            else None
        ),
    }
    _emit(payload, args, _render_solve)


def _render_solve(p):
    lines = [f"status: {p['status']}"]
    if p["t"] is not None:
        lines.append("t: " + " ".join(f"{x:.12g}" for x in p["t"]))
        lines.append(f"gradient sup-norm: {p['gradient_norm']:.3e}")
    lines.append(f"iterations: {p['iterations']}")
    return "\n".join(lines) + "\n"


def cmd_glsm_phase(args):
    prob = jsonio.glsm_from_dict(_load_json(args.source))
    sets = glsm_mod.unstable_supports(prob.charges, prob.fi)
    payload = {"minimal_unstable_sets": [list(s) for s in sets]}
    _emit(payload, args, lambda p: "minimal unstable zero-sets: " + _sets(p["minimal_unstable_sets"]) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricglsm",
        description=(
            "Cox presentations of smooth toric varieties, genus-0 section "
            "collections, the collapsing map, and GLSM moment-map analysis"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    sp = sub.add_parser("fan-check", help="validate a fan; report smooth/complete/nef-proxy")
    sp.add_argument("source", metavar="fan", help="fan JSON file or built-in name (P2, F1, ...)")
    common(sp)
    sp.set_defaults(fn=cmd_fan_check)

    sp = sub.add_parser("cox", help="Cox quotient presentation of a fan")
    sp.add_argument("source", metavar="fan")
    common(sp)
    sp.set_defaults(fn=cmd_cox)

    sp = sub.add_parser("moduli-dim", help="dimension counts for a multidegree")
    sp.add_argument("source", metavar="fan")
    sp.add_argument("--degree", required=True, help="comma-separated multidegree, one entry per ray")
    sp.add_argument("--sample", action="store_true", help="include a seeded random nonvanishing collection")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=int, default=3, help="coefficient bound for --sample")
    common(sp)
    sp.set_defaults(fn=cmd_moduli_dim)

    sp = sub.add_parser("delta-check", help="nonvanishing/nondegeneracy of a collection")
    sp.add_argument("source", metavar="collection", help="collection JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_delta_check)

    sp = sub.add_parser("collapse", help="collapse genus-0 stable-map data")
    sp.add_argument("source", metavar="stable_map", help="stable-map JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_collapse)

    sp = sub.add_parser("glsm-solve", help="solve the moment-map equation")
    sp.add_argument("source", metavar="problem", help="GLSM JSON file")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=200)
    common(sp)
    sp.set_defaults(fn=cmd_glsm_solve)

    sp = sub.add_parser("glsm-phase", help="minimal unstable zero-sets for an FI vector")
    sp.add_argument("source", metavar="problem", help="GLSM JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_glsm_phase)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
        return 0
    except OSError as exc:  # an input file, the -o target, or stdout itself
        where, message = exc.filename or "stdout", exc.strerror
    except KeyError as exc:  # a JSON object without a required field
        where, message = args.source, f"missing field {exc}"
    except ValueError as exc:
        where, message = args.source, exc
    print(f"error: {where}: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
