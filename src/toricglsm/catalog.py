"""Built-in fans: projective spaces, a product of lines, Hirzebruch surfaces."""

from __future__ import annotations

import itertools
import re

from .fan import Fan


def projective_space(n: int) -> Fan:
    """Rays e_1..e_n and -(1,...,1); maximal cones are all n-subsets."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(itertools.combinations(range(n + 1), n))
    return Fan(dim=n, rays=tuple(rays), max_cones=tuple(cones), name=f"P{n}")


def p1_x_p1() -> Fan:
    return Fan(
        dim=2,
        rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
        max_cones=((0, 2), (0, 3), (1, 2), (1, 3)),
        name="P1xP1",
    )


def hirzebruch(a: int) -> Fan:
    """Rays (1,0), (0,1), (-1,a), (0,-1) with the four adjacent cones."""
    if a < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    return Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, a), (0, -1)),
        max_cones=((0, 1), (1, 2), (2, 3), (0, 3)),
        name=f"F{a}",
    )


def by_name(name: str) -> Fan:
    """Look up a fan by its conventional name (P3, P1xP1, F2, ...)."""
    if name == "P1xP1":
        return p1_x_p1()
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return projective_space(int(m.group(1)))
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        return hirzebruch(int(m.group(1)))
    raise ValueError(f"unknown fan name {name!r}")


def builds(f: Fan) -> bool:
    """True iff by_name(f.name) == f.  P<n> is built only when n is f's
    dimension, so a plane fan labelled "P99999" costs nothing."""
    if re.fullmatch(r"P\d+", f.name) and f.name != f"P{f.dim}":
        return False
    try:
        return by_name(f.name) == f
    except ValueError:  # not a catalog name
        return False


GOLDEN_NAMES = ("P1", "P2", "P3", "P4", "P1xP1", "F0", "F1", "F2")
