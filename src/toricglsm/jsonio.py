"""JSON schemas for fans, collections, stable-map data, and GLSM problems.

Fan files round-trip bit-exactly: {"name": str, "rays": [[int,...],...],
"max_cones": [[int,...],...]} with 0-based indices.  Rationals are carried
as strings in lowest terms ("3", "-2/5"); forms as strings in the form
grammar.
"""

from __future__ import annotations

from fractions import Fraction

from . import catalog
from .collapse import Attachment, GenusZeroStableMapData
from .delta import WeakDeltaCollection
from .fan import Fan
from .forms import format_form, parse_form
from .glsm import GLSMProblem
from .lattice import IntMatrix


def rational_to_str(q) -> str:
    return str(Fraction(q))


def _dict(value, what) -> dict:
    """A JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _list(value, what, entries=None) -> list:
    """A JSON list; with entries (int or str), of exactly that type (floats
    and booleans are refused as integers, not cast)."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    bad = [x for x in value if type(x) is not entries] if entries else []
    if bad:
        kind = "integers" if entries is int else "strings"
        raise ValueError(f"{what} entries must be {kind}, got {bad[0]!r}")
    return value


def _int_rows(value, what) -> list:
    return [_list(row, what, entries=int) for row in _list(value, what)]


def rational_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def fan_to_dict(f: Fan) -> dict:
    return {
        "name": f.name,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def fan_from_dict(obj) -> Fan:
    if isinstance(obj, str):
        return catalog.by_name(obj)
    obj = _dict(obj, "fan")
    rays = _int_rows(obj["rays"], "rays")
    cones = _int_rows(obj["max_cones"], "max_cones")
    if not rays:
        raise ValueError("fan needs at least one ray")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"fan name must be a string, got {type(name).__name__}")
    return Fan(
        dim=len(rays[0]),
        rays=tuple(tuple(r) for r in rays),
        max_cones=tuple(tuple(c) for c in cones),
        name=name,
    )


def collection_to_dict(c: WeakDeltaCollection) -> dict:
    return {
        "fan": c.fan.name if catalog.builds(c.fan) else fan_to_dict(c.fan),
        "degrees": list(c.degree),
        "sections": [format_form(u) for u in c.sections],
        "trivializations": [rational_to_str(t) for t in c.trivializations],
    }


def collection_from_dict(obj) -> WeakDeltaCollection:
    obj = _dict(obj, "collection")
    f = fan_from_dict(obj["fan"])
    degrees = _list(obj["degrees"], "degrees", entries=int)
    raw = _list(obj["sections"], "sections", entries=str)
    if len(raw) != len(degrees):
        raise ValueError("sections and degrees must have the same length")
    sections = []
    for i, (s, d) in enumerate(zip(raw, degrees)):
        try:
            sections.append(parse_form(s, expected_degree=d))
        except ValueError as exc:
            raise ValueError(f"sections[{i}]: {exc}") from None
    triv = obj.get("trivializations")
    if triv is not None:
        triv = [rational_from_str(t) for t in _list(triv, "trivializations")]
    return WeakDeltaCollection(
        fan=f, degree=tuple(degrees), sections=tuple(sections), trivializations=triv
    )


def stable_map_to_dict(data: GenusZeroStableMapData) -> dict:
    return {
        "main": collection_to_dict(data.main),
        "attachments": [
            {
                "point": [rational_to_str(x) for x in att.point],
                "degree": list(att.degree),
            }
            for att in data.attachments
        ],
    }


def stable_map_from_dict(obj) -> GenusZeroStableMapData:
    obj = _dict(obj, "stable map")
    main = collection_from_dict(obj["main"])
    atts = []
    for raw in _list(obj.get("attachments", []), "attachments"):
        raw = _dict(raw, "attachment")
        point = tuple(rational_from_str(x) for x in _list(raw["point"], "point"))
        atts.append(Attachment(point=point, degree=tuple(_list(raw["degree"], "degree", entries=int))))
    return GenusZeroStableMapData(main=main, attachments=tuple(atts))


def glsm_to_dict(p: GLSMProblem) -> dict:
    return {
        "charges": p.charges.to_rows(),
        "fi": [rational_to_str(x) for x in p.fi],
        "amplitudes": [rational_to_str(x) for x in p.amplitudes],
    }


def glsm_from_dict(obj) -> GLSMProblem:
    obj = _dict(obj, "GLSM problem")
    charges = IntMatrix.from_rows(_int_rows(obj["charges"], "charges"))
    return GLSMProblem(
        charges=charges,
        fi=tuple(rational_from_str(x) for x in _list(obj["fi"], "fi")),
        amplitudes=tuple(rational_from_str(x) for x in _list(obj["amplitudes"], "amplitudes")),
    )
