import itertools

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form

from toricglsm import catalog
from toricglsm.cox import (
    CoxPresentation,
    cox_presentation,
    outside_irrelevant_locus,
    primitive_collections,
)
from toricglsm.fan import Fan
from toricglsm.lattice import IntMatrix, smith_normal_form


def test_p2_presentation(p2):
    pres = cox_presentation(p2)
    assert pres.pic_rank == 1
    assert pres.charge_matrix.to_rows() in ([[1, 1, 1]], [[-1, -1, -1]])
    assert set(pres.irrelevant_generators) == {(2,), (1,), (0,)}
    assert pres.primitive_collections == ((0, 1, 2),)


def test_p1xp1_presentation(p1xp1):
    pres = cox_presentation(p1xp1)
    assert pres.pic_rank == 2
    # row-equivalence to [[1,1,0,0],[0,0,1,1]]: same row space over Z
    ref = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    _assert_same_row_lattice(pres.charge_matrix, ref)


def test_f1_presentation(f1):
    pres = cox_presentation(f1)
    assert pres.pic_rank == 2
    ref = IntMatrix.from_rows([[1, -1, 1, 0], [0, 1, 0, 1]])
    _assert_same_row_lattice(pres.charge_matrix, ref)


def _assert_same_row_lattice(A, B):
    # two row lattices are equal iff their Hermite normal forms are
    hnf = [hermite_normal_form(sympy.Matrix(M.to_rows()).T) for M in (A, B)]
    assert hnf[0] == hnf[1]


def test_invariants_on_golden(golden_fans):
    for f in golden_fans:
        pres = cox_presentation(f)
        Q, B = pres.charge_matrix, pres.ray_matrix
        assert (Q @ B) == IntMatrix.zero(Q.rows, B.cols)
        assert pres.pic_rank == f.n_rays - f.dim
        # surjectivity onto the class lattice: all invariant factors 1
        assert all(d == 1 for d in smith_normal_form(Q).diagonal()[: Q.rows])
        for i, cone in enumerate(f.max_cones):
            assert set(pres.irrelevant_generators[i]) == set(range(f.n_rays)) - set(cone)


def test_primitive_collections_minimality(golden_fans):
    for f in golden_fans:
        cone_sets = [set(c) for c in f.max_cones]
        pcs = primitive_collections(f)
        for pc in pcs:
            s = set(pc)
            assert not any(s <= c for c in cone_sets)
            for i in pc:
                assert any(s - {i} <= c for c in cone_sets)


def test_primitive_collections_references(p1xp1, f1):
    assert set(primitive_collections(p1xp1)) == {(0, 1), (2, 3)}
    assert set(primitive_collections(f1)) == {(0, 2), (1, 3)}


def test_outside_irrelevant_locus_p2(p2):
    pres = cox_presentation(p2)
    assert outside_irrelevant_locus(p2, {0, 1})
    assert not outside_irrelevant_locus(p2, {0, 1, 2})
    assert outside_irrelevant_locus(p2, set())


def test_outside_iff_no_primitive_collection(golden_fans):
    # brute force over all zero-sets for fans with <= 10 rays
    for f in golden_fans:
        if f.n_rays > 10:
            continue
        pres = cox_presentation(f)
        pcs = [set(p) for p in pres.primitive_collections]
        for size in range(f.n_rays + 1):
            for zs in itertools.combinations(range(f.n_rays), size):
                expect = not any(p <= set(zs) for p in pcs)
                assert outside_irrelevant_locus(f, set(zs)) == expect


def test_presentation_requires_complete():
    affine = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    with pytest.raises(ValueError):
        cox_presentation(affine)


def test_ray_limit():
    big = catalog.projective_space(16)  # 17 rays
    with pytest.raises(ValueError):
        primitive_collections(big)


def test_sixteen_rays_accepted():
    # P15 has 16 rays, the most the search takes; its only collection is all of them
    assert primitive_collections(catalog.projective_space(15)) == (tuple(range(16)),)


def test_zero_dimensional_presentation():
    point = Fan(dim=0, rays=(), max_cones=((),))
    assert cox_presentation(point) == CoxPresentation(
        ray_matrix=IntMatrix(0, 0, ()),
        charge_matrix=IntMatrix(0, 0, ()),
        pic_rank=0,
        irrelevant_generators=((),),
        primitive_collections=(),
    )
