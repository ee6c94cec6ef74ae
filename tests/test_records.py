"""Value semantics shared by every record type: equality, hashing, repr,
immutability, keyword construction, pickling and copying."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from toricglsm.collapse import (
    Attachment,
    CollapseResult,
    GenusZeroStableMapData,
    reparametrize_collection,
)
from toricglsm.cox import CoxPresentation
from toricglsm.delta import (
    IsomorphismVerdict,
    WeakDeltaCollection,
    pullback,
    scale_sections,
)
from toricglsm.fan import Fan, ValidationReport, Wall
from toricglsm.forms import BinaryForm, Mobius, parse_form
from toricglsm.glsm import GLSMProblem, SolveReport
from toricglsm.lattice import IntMatrix, SmithDecomposition
from toricglsm.moduli import ModuliSummary


def _p2():
    return Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)),
               name="P2")


def _collection():
    return WeakDeltaCollection(
        fan=_p2(), degree=(1, 1, 1),
        sections=(parse_form("z0"), parse_form("z1"), parse_form("z0 - z1")),
        trivializations=(2, 3),
    )


# (type, field names in order, keyword arguments of one value)
RECORDS = [
    (IntMatrix, ("rows", "cols", "entries"), lambda: dict(rows=2, cols=2, entries=(1, 2, 3, 4))),
    (SmithDecomposition, ("U", "D", "V"),
     lambda: dict(U=IntMatrix.identity(2), D=IntMatrix(2, 2, (1, 0, 0, 2)), V=IntMatrix.identity(2))),
    (BinaryForm, ("degree", "coefficients"), lambda: dict(degree=1, coefficients=(1, Fraction(1, 2)))),
    (Mobius, ("a", "b", "c", "d"), lambda: dict(a=1, b=2, c=0, d=1)),
    (Fan, ("dim", "rays", "max_cones", "name"),
     lambda: dict(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)), name="P1")),
    (ValidationReport, ("issues",), lambda: dict(issues=("cones 0 and 1 overlap",))),
    (Wall, ("wall_rays", "left_cone", "right_cone", "relation"),
     lambda: dict(wall_rays=(0,), left_cone=0, right_cone=1, relation=(1, 1, 1))),
    (CoxPresentation,
     ("ray_matrix", "charge_matrix", "pic_rank", "irrelevant_generators", "primitive_collections"),
     lambda: dict(ray_matrix=IntMatrix.from_rows(_p2().rays),
                  charge_matrix=IntMatrix(1, 3, (1, 1, 1)), pic_rank=1,
                  irrelevant_generators=((2,), (1,), (0,)), primitive_collections=((0, 1, 2),))),
    (WeakDeltaCollection, ("fan", "degree", "sections", "trivializations"),
     lambda: dict(fan=_p2(), degree=(1, 1, 1), sections=_collection().sections,
                  trivializations=(2, 3))),
    (IsomorphismVerdict, ("status", "witness"),
     lambda: dict(status="isomorphic_rational", witness=(Fraction(1), Fraction(2), Fraction(3)))),
    (Attachment, ("point", "degree"), lambda: dict(point=(1, 0), degree=(1, 1, 1))),
    (GenusZeroStableMapData, ("main", "attachments"),
     lambda: dict(main=_collection(), attachments=(Attachment((1, 0), (1, 1, 1)),))),
    (CollapseResult, ("collection", "total_degree"),
     lambda: dict(collection=_collection(), total_degree=(1, 1, 1))),
    (GLSMProblem, ("charges", "fi", "amplitudes"),
     lambda: dict(charges=IntMatrix(1, 3, (1, 1, 1)), fi=(1,), amplitudes=(1, 0, Fraction(1, 2)))),
    (SolveReport, ("status", "t", "gradient_norm", "iterations", "recession_direction"),
     lambda: dict(status="Converged", t=(0.5,), gradient_norm=1e-9, iterations=3,
                  recession_direction=None)),
    (ModuliSummary, ("degree", "y_dim", "g_dim", "w_dim"),
     lambda: dict(degree=(1, 1, 1), y_dim=6, g_dim=1, w_dim=5)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_type_is_covered():
    assert len({cls for cls, _, _ in RECORDS}) == 16


@pytest.mark.parametrize("cls, fields, kwargs", RECORDS, ids=IDS)
def test_equal_values_give_equal_records(cls, fields, kwargs):
    a, b = cls(**kwargs()), cls(**kwargs())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, kwargs", RECORDS, ids=IDS)
def test_record_differs_from_tuple_and_other_types(cls, fields, kwargs):
    r = cls(**kwargs())
    assert r != tuple(getattr(r, name) for name in fields)
    for other_cls, _, other_kwargs in RECORDS:
        if other_cls is not cls:
            assert r != other_cls(**other_kwargs())


def test_fan_equality_and_hash_ignore_name():
    a, b = _p2(), Fan(2, _p2().rays, _p2().max_cones, name="another name")
    assert a == b and hash(a) == hash(b)
    assert a != Fan(2, _p2().rays, ((0, 1), (1, 2)), name="P2")


@pytest.mark.parametrize("cls, fields, kwargs", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, kwargs):
    r = cls(**kwargs())
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r == cls(**kwargs())


@pytest.mark.parametrize("cls, fields, kwargs", RECORDS, ids=IDS)
def test_repr_lists_every_field_in_order(cls, fields, kwargs):
    r = cls(**kwargs())
    listed = ", ".join(f"{name}={getattr(r, name)!r}" for name in fields)
    assert repr(r) == f"{cls.__name__}({listed})"


@pytest.mark.parametrize("cls, fields, kwargs", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, kwargs):
    r = cls(**kwargs())
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(back) is cls and back == r
        assert repr(back) == repr(r)


def test_keyword_defaults():
    p2 = _p2()
    assert Fan(dim=2, rays=p2.rays, max_cones=p2.max_cones).name == ""
    c = WeakDeltaCollection(fan=p2, degree=(0, 0, 0), sections=(BinaryForm.one(),) * 3)
    assert c.trivializations == (1,) * p2.dim
    assert all(type(t) is Fraction for t in c.trivializations)
    assert GenusZeroStableMapData(main=c).attachments == ()
    assert IsomorphismVerdict(status="not_isomorphic").witness is None
    s = SolveReport(status="IterationLimit")
    assert (s.t, s.iterations, s.recession_direction) == (None, 0, None)
    assert math.isnan(s.gradient_norm)


def test_one_post_init_per_collection(monkeypatch):
    calls = []
    original = WeakDeltaCollection.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(WeakDeltaCollection, "__post_init__", counting)
    c = _collection()
    assert len(calls) == 1
    scale_sections(c, (1, 2, 3))
    assert len(calls) == 2
    reparametrize_collection(c, Mobius(1, 1, 0, 1))
    assert len(calls) == 3
    pullback(c, (parse_form("z0^2"), parse_form("z1^2")))
    assert len(calls) == 4

