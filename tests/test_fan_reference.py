"""Fan validation and completeness, checked against the per-ray
2n-variable intersection LPs and the Monte Carlo completeness test they
replaced, on built-in fans, products and seeded broken variants; the
local validity test against the pairwise LPs it skips; the wall
relations read off the cached adjugates against one rational solve per
facet; and the lattice facts cox_presentation relies on after
require_smooth_complete: no torsion and |rays| - dim charge rows."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from toricglsm import catalog, fan
from toricglsm.cox import cox_presentation
from toricglsm.delta import WeakDeltaCollection
from toricglsm.fan import Fan, is_complete, validate_fan
from toricglsm.forms import BinaryForm
from toricglsm.lattice import IntMatrix, adjugate, rank, smith_normal_form, solve_rational
from toricglsm.ratlp import feasible


def reference_issues(f):
    """Fan issues, with one 2n-variable LP per extra ray of each cone pair."""
    issues = []
    for i, r in enumerate(f.rays):
        if len(r) != f.dim:
            issues.append(f"ray {i} has length {len(r)}, expected {f.dim}")
        elif all(c == 0 for c in r):
            issues.append(f"ray {i} is zero")
        elif math.gcd(*r) != 1:
            issues.append(f"ray {i} = {r} is not primitive")
    seen = {}
    for i, r in enumerate(f.rays):
        if r in seen:
            issues.append(f"duplicate ray: index {seen[r]} and {i}")
        else:
            seen[r] = i
    if issues:
        return issues
    covered = set()
    for ci, cone in enumerate(f.max_cones):
        if len(set(cone)) != len(cone):
            issues.append(f"cone {ci} repeats a ray index")
            continue
        if any(i < 0 or i >= f.n_rays for i in cone):
            issues.append(f"cone {ci} has a ray index out of range")
            continue
        covered.update(cone)
        if rank(IntMatrix.from_rows([f.rays[i] for i in cone])) != len(cone):
            issues.append(f"cone {ci} is not simplicial (generators dependent)")
    issues += [f"ray {i} appears in no maximal cone" for i in range(f.n_rays) if i not in covered]
    if rank(IntMatrix.from_rows(list(f.rays))) != f.dim:
        issues.append("rays do not span the ambient space")
    if issues:
        return issues
    cones = [tuple(f.rays[i] for i in c) for c in f.max_cones]
    for a, b in itertools.combinations(range(len(cones)), 2):
        if _reference_overlap(cones[a], cones[b]):
            issues.append(f"cones {a} and {b} intersect outside their common face")
    return issues


@functools.lru_cache(maxsize=None)
def _reference_overlap(S, T):
    """True iff some x = sum p_s n_s = sum q_t n_t with p, q >= 0 needs a
    generator outside S∩T (p_forced >= 1 for some extra ray).  S and T are
    tuples of ray vectors, so broken variants reuse their base fan's LPs."""
    common = set(S) & set(T)
    for cone, other in ((S, T), (T, S)):
        nvars = len(cone) + len(other)
        for forced in (i for i in range(len(cone)) if cone[i] not in common):
            cons = []
            for j in range(len(cone[0])):
                row = [Fraction(n[j]) for n in cone] + [Fraction(-n[j]) for n in other]
                cons += [(tuple(row), 0), (tuple(-c for c in row), 0)]
            for v in range(nvars):
                cons.append((tuple(Fraction(-(w == v)) for w in range(nvars)), 0))
            cons.append((tuple(Fraction(-(w == forced)) for w in range(nvars)), -1))
            if feasible(cons, nvars):
                return True
    return False


def reference_complete(f, directions=100, seed=20240901):
    """Pseudomanifold criterion, connected adjacency and Monte Carlo coverage."""
    if any(len(c) != f.dim for c in f.max_cones):
        return False
    facets = {}
    for ci, cone in enumerate(f.max_cones):
        for facet in itertools.combinations(cone, len(cone) - 1):
            facets.setdefault(facet, []).append(ci)
    if any(len(cs) != 2 for cs in facets.values()):
        return False
    adj = {i: set() for i in range(len(f.max_cones))}
    for ca, cb in facets.values():
        adj[ca].add(cb)
        adj[cb].add(ca)
    seen, stack = {0}, [0]
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    if len(seen) != len(f.max_cones):
        return False
    rng = random.Random(seed)
    for _ in range(directions):
        x = tuple(rng.randint(-50, 50) for _ in range(f.dim))
        if any(x) and not any(_contains(f, cone, x) for cone in f.max_cones):
            return False
    return True


def _contains(f, cone, x):
    rk, coeffs = solve_rational([[f.rays[i][j] for i in cone] for j in range(f.dim)], x)
    return rk == f.dim and all(c >= 0 for c in coeffs)


def product(f, g):
    rays = [r + (0,) * g.dim for r in f.rays] + [(0,) * f.dim + r for r in g.rays]
    cones = [a + tuple(f.n_rays + i for i in b) for a in f.max_cones for b in g.max_cones]
    return Fan(dim=f.dim + g.dim, rays=tuple(rays), max_cones=tuple(cones))


def _base_fans():
    fans = [catalog.by_name(n) for n in catalog.GOLDEN_NAMES] + [catalog.projective_space(5)]
    p1, p2 = catalog.by_name("P1"), catalog.by_name("P2")
    return fans + [product(p2, p2), product(product(p1, p1), p2)]


def _broken_variants(f, rng):
    """An overlapping extra ray and cone, a dropped cone, and a random extra
    cone through a new random ray."""
    out = []
    cone = rng.choice(f.max_cones)
    if f.dim > 1:
        a, b = rng.sample(cone, 2)
        s = tuple(x + y for x, y in zip(f.rays[a], f.rays[b]))
        ray = tuple(c // math.gcd(*s) for c in s)
        if ray not in f.rays:
            swapped = tuple(sorted([i for i in cone if i != a] + [f.n_rays]))
            out.append(Fan(f.dim, f.rays + (ray,), f.max_cones + (swapped,)))
    dropped = rng.randrange(len(f.max_cones))
    out.append(Fan(f.dim, f.rays, f.max_cones[:dropped] + f.max_cones[dropped + 1:]))
    # entries in {-1, 0, 1} keep the reference LPs small
    new_rays = [r for r in itertools.product((-1, 0, 1), repeat=f.dim) if any(r) and r not in f.rays]
    if new_rays:
        ray = rng.choice(new_rays)
        extra = tuple(sorted(rng.sample(range(f.n_rays), f.dim - 1) + [f.n_rays]))
        out.append(Fan(f.dim, f.rays + (ray,), f.max_cones + (extra,)))
    return out


def _check_against_reference(f):
    issues = list(validate_fan(f).issues)
    assert issues == reference_issues(f), f
    if not issues:
        assert is_complete(f) == reference_complete(f), f


def test_validate_and_complete_match_reference():
    rng = random.Random(9)
    for f in _base_fans():
        _check_against_reference(f)
        assert is_complete(f)
        for broken in _broken_variants(f, rng):
            _check_against_reference(broken)


def test_broken_variants_are_caught():
    # the seeded variants must reach both verdicts of the cone-pair LP and
    # include valid fans that are not complete
    rng = random.Random(9)
    overlapping = incomplete = 0
    for f in _base_fans():
        for broken in _broken_variants(f, rng):
            rep = validate_fan(broken)
            overlapping += any("intersect outside" in i for i in rep.issues)
            incomplete += rep.ok and not is_complete(broken)
    assert overlapping >= 10 and incomplete >= 10


def test_exact_completeness_small_cases(p2):
    p2_minus_cone = Fan(dim=2, rays=p2.rays, max_cones=p2.max_cones[1:])
    assert validate_fan(p2_minus_cone).ok
    assert not is_complete(p2_minus_cone)
    assert is_complete(Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,))))
    assert not is_complete(Fan(dim=1, rays=((1,),), max_cones=((0,),)))


def test_fan_validated_once_per_distinct_fan(p2):
    fan._validate.cache_clear()
    sections = (BinaryForm.one(),) * p2.n_rays
    for _ in range(20):
        WeakDeltaCollection(fan=catalog.by_name("P2"), degree=(0, 0, 0), sections=sections)
    assert fan._validate.cache_info().misses == 1


def local_and_pairwise(f):
    """(issues, whether the local test proved the fan valid and complete,
    issues from the pairwise LPs alone with the local test switched off)."""
    proved = []
    covers_once = fan._covers_once

    def spy(f, inverses):
        proved.append(covers_once(f, inverses))
        return proved[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan, "_covers_once", spy)
        issues = fan._validate.__wrapped__(f).issues
        mp.setattr(fan, "_covers_once", lambda f, inverses: False)
        pairwise = fan._validate.__wrapped__(f).issues
    return issues, any(proved), pairwise


def _check_local(f):
    """The local test changes no issue, and it proves exactly the valid
    complete fans (for these, every maximal cone is full-dimensional and
    every facet lies in two cones)."""
    issues, proved, pairwise = local_and_pairwise(f)
    assert issues == pairwise, f
    assert proved == (not issues and is_complete(f)), f
    return proved


def _power(f, m):
    out = f
    for _ in range(m - 1):
        out = product(out, f)
    return out


def _cyclic_fans(rng, count):
    """Plane fans with one cone per consecutive pair of a closed cycle of
    random rays: in angular order (valid when no gap reaches pi) or in
    random order (folds and multiple windings); cone order shuffled."""
    out = []
    while len(out) < count:
        m = rng.randint(3, 7)
        rays = set()
        while len(rays) < m:
            r = (rng.randint(-4, 4), rng.randint(-4, 4))
            if any(r) and math.gcd(*r) == 1:
                rays.add(r)
        rays = list(rays)
        if rng.random() < 0.5:
            rays.sort(key=lambda r: math.atan2(r[1], r[0]))
        else:
            rng.shuffle(rays)
        cones = [(i, (i + 1) % m) for i in range(m)]
        rng.shuffle(cones)
        out.append(Fan(2, tuple(rays), tuple(cones)))
    return out


def _sheared(f, rng):
    """An image of f under a random unimodular shear, rays relabelled."""
    rays = [list(r) for r in f.rays]
    for _ in range(3):
        a, b = rng.sample(range(f.dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in rays:
            r[a] += c * r[b]
    order = list(range(f.n_rays))
    rng.shuffle(order)  # new ray i is old ray order[i]
    new = {old: i for i, old in enumerate(order)}
    cones = tuple(tuple(new[i] for i in c) for c in f.max_cones)
    return Fan(f.dim, tuple(tuple(rays[old]) for old in order), cones)


def _swapped(f, rng):
    """f with one ray index of one cone replaced by another ray."""
    ci = rng.randrange(len(f.max_cones))
    cone = list(f.max_cones[ci])
    cone[rng.randrange(len(cone))] = rng.choice([i for i in range(f.n_rays) if i not in cone])
    return Fan(f.dim, f.rays, f.max_cones[:ci] + (tuple(cone),) + f.max_cones[ci + 1:])


def _products():
    p1, p2 = catalog.by_name("P1"), catalog.by_name("P2")
    return [_power(p1, m) for m in range(2, 7)] + [_power(p2, 3), product(p1, p2)]


def test_local_test_matches_pairwise_on_built_in_fans_and_products():
    for f in _base_fans() + _products():
        assert _check_local(f), f
    rng = random.Random(9)
    for f in _base_fans():
        for broken in _broken_variants(f, rng):
            _check_local(broken)


def test_local_test_matches_pairwise_on_random_plane_fans():
    fans = _cyclic_fans(random.Random(15), 300)
    proved = sum(_check_local(f) for f in fans)
    assert 30 <= proved <= len(fans) - 100


def test_local_test_matches_pairwise_on_sheared_solids():
    rng = random.Random(15)
    p1, p2 = catalog.by_name("P1"), catalog.by_name("P2")
    bases = [catalog.by_name("P3"), product(p1, p2), _power(p1, 3), product(p1, catalog.by_name("F1"))]
    proved = broken = 0
    for _ in range(40):
        f = _sheared(rng.choice(bases), rng)
        proved += _check_local(f)
        broken += not _check_local(_swapped(f, rng))
    assert proved == 40 and broken >= 30


def _star(rays, step):
    m = len(rays)
    return Fan(2, tuple(rays), tuple((i, (i + step) % m) for i in range(m)))


def test_star_polygons_fall_back_to_pairwise():
    # rays in angular order, each cone skipping one: every facet lies in two
    # cones on opposite sides, but the cones wrap twice around the origin
    f = Fan(2, ((1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)), ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)))
    assert validate_fan(f).issues == tuple(
        f"cones {a} and {b} intersect outside their common face"
        for a, b in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    )
    heptagon = [(1, 0), (2, 3), (-1, 4), (-4, 1), (-3, -2), (1, -4), (4, -3)]
    # the first generic-point candidate n_0 + 2 n_2 = (3, -9) lies on ray 1
    on_ray = _star([(-3, -1), (1, -3), (3, -4), (-1, 4), (-2, 3)], 2)
    for star in (f, _star(heptagon, 2), _star(heptagon, 3), on_ray):
        assert not _check_local(star)
        assert not validate_fan(star).ok


def test_zero_dimensional_fans():
    # R^0 is its own single cone; a fan with no cone covers nothing
    point = Fan(dim=0, rays=(), max_cones=((),))
    assert validate_fan(point).ok and is_complete(point)
    empty = Fan(dim=0, rays=(), max_cones=())
    assert validate_fan(empty).ok and not is_complete(empty)


def reference_walls(f):
    """Walls with their relations n_left + n_right + sum_i a_i n_{w_i} = 0,
    by one rational Gauss-Jordan solve for the a_i per facet."""
    facets = {}
    for ci, cone in enumerate(f.max_cones):
        for pos in range(len(cone)):
            facets.setdefault(cone[:pos] + cone[pos + 1:], []).append((ci, pos))
    out = []
    for facet in sorted(facets):
        (ca, pa), (cb, pb) = facets[facet]
        left, right = f.max_cones[ca][pa], f.max_cones[cb][pb]
        A = [[f.rays[i][j] for i in facet] for j in range(f.dim)]
        _, coeffs = solve_rational(A, [-a - b for a, b in zip(f.rays[left], f.rays[right])])
        assert all(c.denominator == 1 for c in coeffs), f
        relation = [0] * f.n_rays
        relation[left] += 1
        relation[right] += 1
        for i, c in zip(facet, coeffs):
            relation[i] += int(c)
        out.append(fan.Wall(facet, ca, cb, tuple(relation)))
    return tuple(out)


def _signed_permutation(f, rng):
    """f under a random signed permutation of the coordinates, rays
    relabelled, so that some cones have determinant -1."""
    perm = list(range(f.dim))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(f.dim)]
    order = list(range(f.n_rays))
    rng.shuffle(order)  # new ray i is old ray order[i]
    new = {old: i for i, old in enumerate(order)}
    rays = tuple(tuple(sign[b] * f.rays[old][perm[b]] for b in range(f.dim)) for old in order)
    return Fan(f.dim, rays, tuple(tuple(new[i] for i in c) for c in f.max_cones))


def test_walls_match_rational_reference():
    p1, p2 = catalog.by_name("P1"), catalog.by_name("P2")
    bases = [catalog.by_name(n) for n in catalog.GOLDEN_NAMES]
    bases += [catalog.projective_space(5), _power(p2, 3), _power(p1, 6)]
    rng = random.Random(16)
    images = [_signed_permutation(f, rng) for f in bases for _ in range(3)]
    negative = 0
    for f in bases + images:
        assert fan.walls(f) == reference_walls(f), f
        negative += any(det < 0 for det, _ in fan._inverses(f))
    assert negative >= len(images) // 2


def test_smooth_complete_rays_span_the_lattice():
    """The rays of a smooth complete fan span Z^dim, so the SNF of B^T has
    no torsion and its kernel gives |rays| - dim charge rows."""
    rng = random.Random(28)
    bases = _base_fans()
    for f in bases + [_signed_permutation(f, rng) for f in bases for _ in range(3)]:
        snf = smith_normal_form(IntMatrix.from_rows(f.rays).transpose())
        assert snf.diagonal() == (1,) * f.dim, f
        assert cox_presentation(f).charge_matrix.rows == f.n_rays - f.dim, f


def test_one_adjugate_per_maximal_cone(monkeypatch):
    p2 = catalog.by_name("P2")
    f = product(p2, p2)
    for cached in (fan._validate, fan._inverses, fan.is_smooth, fan.is_complete, fan.walls):
        cached.cache_clear()
    calls = []

    def counting(A):
        calls.append(A)
        return adjugate(A)

    monkeypatch.setattr(fan, "adjugate", counting)
    assert validate_fan(f).ok and fan.is_smooth(f) and len(fan.walls(f)) == 18
    assert len(calls) == len(f.max_cones) == 9
