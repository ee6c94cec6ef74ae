"""Cox quotient presentation of a smooth complete toric variety.

From a fan this computes the charge matrix (a kernel basis of the ray
matrix's transpose, arranged as rows), the Picard rank, the irrelevant
ideal's monomial generators (as ray-index supports), the primitive
collections describing V(I), and the one test of membership in V(I).
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .fan import FAN_CACHE_SIZE, Fan, require_smooth_complete, require_valid
from .lattice import IntMatrix, smith_normal_form

_MAX_RAYS_FOR_COLLECTIONS = 16


class CoxPresentation(Record):
    __slots__ = (
        "ray_matrix",  # |rays| x n, rows are the rays
        "charge_matrix",  # (|rays| - n) x |rays|
        "pic_rank",
        "irrelevant_generators",  # complement of each max cone, as index tuples
        "primitive_collections",  # minimal index sets spanning no cone
    )

    def __init__(self, ray_matrix, charge_matrix, pic_rank, irrelevant_generators,
                 primitive_collections):
        super().__init__(ray_matrix, charge_matrix, pic_rank, irrelevant_generators,
                         primitive_collections)


def minimal_transversals(n, edges):
    """Minimal subsets of range(n) meeting every edge, by Berge's algorithm,
    sorted by size and then lexicographically.

    No edges give [()]; an empty edge gives [].
    """
    masks = set()
    for e in edges:
        if any(not 0 <= v < n for v in e):
            raise ValueError(f"edge {tuple(e)} leaves range({n})")
        masks.add(sum(1 << v for v in set(e)))
    found = [0]
    for e in sorted(masks, key=int.bit_count):
        keep = [t for t in found if t & e]
        grown = {t | 1 << v for t in found if not t & e for v in range(n) if e >> v & 1}
        grown = [g for g in grown if not any(o & g == o != g for o in grown)]
        found = keep + [g for g in grown if not any(k & g == k for k in keep)]
    sets = [tuple(v for v in range(n) if t >> v & 1) for t in found]
    return sorted(sets, key=lambda s: (len(s), s))


def _cone_complements(f: Fan):
    return tuple(tuple(i for i in range(f.n_rays) if i not in c) for c in f.max_cones)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def primitive_collections(f: Fan):
    """Minimal ray-index sets contained in no cone of the fan.

    A subset spans a cone of a simplicial fan exactly when it lies inside
    some maximal cone's ray set, so the primitive collections are the
    minimal transversals of the maximal cones' complements (Batyrev 1991).
    """
    if f.n_rays > _MAX_RAYS_FOR_COLLECTIONS:
        raise ValueError(
            f"primitive-collection search limited to {_MAX_RAYS_FOR_COLLECTIONS} rays"
        )
    require_valid(f)
    return tuple(minimal_transversals(f.n_rays, _cone_complements(f)))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def cox_presentation(f: Fan) -> CoxPresentation:
    """X = (C^rays - V(I)) / G, presented by exact integer data."""
    collections = primitive_collections(f)  # checks the ray cap, validates
    require_smooth_complete(f)

    B = IntMatrix.from_rows(list(f.rays))
    # a smooth complete fan has a unimodular maximal cone, so its rays span
    # Z^dim: B^T's SNF diagonal is all ones (no torsion), and V's columns past
    # the rank are a basis of ker B^T, |rays| - dim of them
    snf = smith_normal_form(B.transpose())
    kernel = [snf.V.column(j) for j in range(snf.rank(), f.n_rays)]
    Q = IntMatrix.from_rows(kernel)
    return CoxPresentation(
        ray_matrix=B,
        charge_matrix=Q,
        pic_rank=f.n_rays - f.dim,
        irrelevant_generators=_cone_complements(f),
        primitive_collections=collections,
    )


def outside_irrelevant_locus(f: Fan, zero_set) -> bool:
    """True iff a point vanishing exactly on `zero_set` (ray indices) avoids
    V(I): the zero set lies in some maximal cone, so it contains no primitive
    collection.  Reads only the maximal cones: any fan, no ray cap."""
    zs = set(zero_set)
    return any(zs.issubset(cone) for cone in f.max_cones)
