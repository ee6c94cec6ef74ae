import pytest

from toricglsm import cox, fan, glsm, jsonio
from toricglsm.fan import (
    Fan,
    is_complete,
    is_smooth,
    prime_divisors_nef,
    validate_fan,
    walls,
)
from toricglsm.lattice import IntMatrix, adjugate


def test_p2_valid(p2):
    assert validate_fan(p2).ok


def test_nested_cones_invalid():
    f = Fan(dim=2, rays=((1, 0), (0, 1), (1, 1)), max_cones=((0, 1), (0, 2)))
    rep = validate_fan(f)
    assert not rep.ok
    assert any("intersect outside" in i for i in rep.issues)


@pytest.mark.parametrize(
    "extra, issues",
    [((0, 1), ("cone 3 repeats cone 0",)),
     ((0,), ("cone 3 lies in cone 0", "cone 3 lies in cone 1"))],
    ids=["repeated", "face"],
)
def test_repeated_or_nested_maximal_cone_invalid(p2, extra, issues):
    # P2 plus a second copy of its cone {0, 1}, or plus the ray {0}
    f = Fan(dim=2, rays=p2.rays, max_cones=((0, 1), (0, 2), (1, 2), extra))
    assert validate_fan(f).issues == issues


def test_nonprimitive_ray_invalid():
    f = Fan(dim=2, rays=((2, 0), (0, 1)), max_cones=((0, 1),))
    rep = validate_fan(f)
    assert any("not primitive" in i for i in rep.issues)


def test_duplicate_ray_invalid():
    f = Fan(dim=2, rays=((1, 0), (1, 0)), max_cones=((0,), (1,)))
    assert any("duplicate" in i for i in validate_fan(f).issues)


def test_cone_index_equal_to_ray_count_is_an_issue():
    f = jsonio.fan_from_dict({"rays": [[1], [-1]], "max_cones": [[1], [0], [2]]})
    assert validate_fan(f).issues == ("cone 2 has a ray index out of range",)


def test_smooth(p2, golden_fans):
    assert is_smooth(p2)
    for f in golden_fans:
        assert is_smooth(f)
    singular = Fan(dim=2, rays=((1, 0), (1, 2), (-1, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
    assert not is_smooth(singular)


def test_smooth_single_ray_line():
    f = Fan(dim=1, rays=((1,),), max_cones=((0,),))
    assert is_smooth(f)


def test_complete(p2, p1xp1, golden_fans):
    assert is_complete(p2)
    assert is_complete(p1xp1)
    for f in golden_fans:
        assert is_complete(f)
    affine = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    assert not is_complete(affine)


def test_walls_p2(p2):
    ws = walls(p2)
    assert len(ws) == 3
    for w in ws:
        assert w.relation == (1, 1, 1)


def test_walls_p1xp1(p1xp1):
    ws = {w.wall_rays: w.relation for w in walls(p1xp1)}
    # wall spanned by (1,0): +1 on the two vertical rays, 0 elsewhere
    assert ws[(0,)] == (0, 0, 1, 1)


def test_walls_f1(f1):
    ws = {w.wall_rays: w.relation for w in walls(f1)}
    assert ws[(1,)] == (1, -1, 1, 0)  # n_0 - n_1 + n_2 = 0


def test_wall_relations_annihilate_rays(golden_fans):
    for f in golden_fans:
        B = IntMatrix.from_rows(list(f.rays))
        for w in walls(f):
            assert all(
                sum(w.relation[i] * f.rays[i][j] for i in range(f.n_rays)) == 0
                for j in range(f.dim)
            )
            # +1 on the two completing rays, 0 outside wall + pair
            extras = [i for i in range(f.n_rays) if w.relation[i] != 0 and i not in w.wall_rays]
            left = set(f.max_cones[w.left_cone]) - set(w.wall_rays)
            right = set(f.max_cones[w.right_cone]) - set(w.wall_rays)
            for i in left | right:
                assert w.relation[i] == 1


def test_smoothness_det_crosscheck(golden_fans):
    for f in golden_fans:
        dets = [
            abs(adjugate(IntMatrix.from_rows([f.rays[i] for i in cone]))[0])
            for cone in f.max_cones
        ]
        assert sum(dets) == len(f.max_cones)


def test_nef_proxy(p2, p1xp1, f1):
    assert prime_divisors_nef(p2)[0]
    assert prime_divisors_nef(p1xp1)[0]
    ok, per = prime_divisors_nef(f1)
    assert not ok
    assert per[1] is False  # the -1 in (1,-1,1,0) sits at ray 1


def test_walls_require_smooth_complete():
    affine = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    with pytest.raises(ValueError):
        walls(affine)


def test_per_fan_caches_stay_bounded():
    cached = (fan._validate, fan._inverses, fan.is_smooth, fan.is_complete, fan.walls,
              cox.primitive_collections, cox.cox_presentation, glsm._wall_classes)
    p2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
    # 1,000 distinct GL(2, Z) images of P2, by the shears (x, y) -> (x + k y, y)
    for k in range(1000):
        image = Fan(2, tuple((x + k * y, y) for x, y in p2.rays), p2.max_cones)
        assert len(walls(image)) == 3
        pres = cox.cox_presentation(image)
        assert glsm.kahler_cone_contains(image, pres, (1,)) != glsm.kahler_cone_contains(
            image, pres, (-1,))
        if k % 100 == 99:
            assert all(f.cache_info().currsize <= fan.FAN_CACHE_SIZE for f in cached)
    # the most recent fan is still cached
    hits = walls.cache_info().hits
    walls(image)
    assert walls.cache_info().hits == hits + 1
