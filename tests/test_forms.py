import random
from fractions import Fraction

import pytest
import sympy

from toricglsm.forms import (
    BinaryForm,
    FormSyntaxError,
    Mobius,
    evaluate,
    format_form,
    gcd,
    linear_form_at,
    mul,
    parse_form,
    substitute,
)


def rand_form(rng, degree, bound=5):
    while True:
        f = BinaryForm(
            degree, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1))
        )
        if not f.is_zero:
            return f


def test_parse_basic():
    f = parse_form("3*z0^2 - z1^2")
    assert f.degree == 2
    assert f.coefficients == (3, 0, -1)
    g = parse_form("z0*z1 + z0^2")
    assert g.coefficients == (1, 1, 0)


def test_parse_inhomogeneous():
    with pytest.raises(ValueError, match="inhomogeneous"):
        parse_form("z0 + z1^2")


def test_parse_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        parse_form("z0", expected_degree=2)


def test_parse_syntax_error_positions():
    with pytest.raises(FormSyntaxError):
        parse_form("z0 + @")
    with pytest.raises(FormSyntaxError):
        parse_form("z0 * ")
    with pytest.raises(FormSyntaxError):
        parse_form("")
    with pytest.raises(FormSyntaxError, match="zero denominator") as exc:
        parse_form("z0 + 3/00*z1")
    assert exc.value.position == 5


def test_parse_rational_coefficients():
    f = parse_form("1/2*z0 - 3/4 * z1")
    assert f.coefficients == (Fraction(1, 2), Fraction(-3, 4))


def test_zero_form_carries_degree():
    z = parse_form("0", expected_degree=3)
    assert z.degree == 3 and z.is_zero
    assert format_form(z) == "0"


def test_roundtrip_format_parse():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_form(rng, rng.randint(0, 5))
        assert parse_form(format_form(f)) == f


def test_gcd_examples():
    assert gcd([parse_form("z0^2 - z1^2"), parse_form("z0 - z1")]) == parse_form("z0 - z1")
    assert gcd([parse_form("z0"), parse_form("z1")]) == BinaryForm.one()
    assert gcd([parse_form("z0*z1"), parse_form("z1^2")]) == parse_form("z1")


def test_gcd_monic_and_divides(sympy_divides):
    rng = random.Random(9)
    for _ in range(80):
        common = rand_form(rng, rng.randint(0, 2))
        a = mul(common, rand_form(rng, rng.randint(0, 3)))
        b = mul(common, rand_form(rng, rng.randint(0, 3)))
        g = gcd([a, b])
        assert sympy_divides(g, a) and sympy_divides(g, b)
        assert sympy_divides(common, g)  # any common divisor divides the gcd
        assert g.degree <= min(a.degree, b.degree)
        lead = next(c for c in g.coefficients if c != 0)
        assert lead == 1


def test_gcd_all_zero_rejected():
    with pytest.raises(ValueError):
        gcd([BinaryForm.zero(2), BinaryForm.zero(1)])


def test_gcd_zero_absorbed():
    f = parse_form("z0 - z1")
    assert gcd([BinaryForm.zero(3), f]) == f


def test_evaluate_examples():
    assert evaluate(parse_form("z0^2 - z1^2"), (1, 1)) == 0
    assert evaluate(parse_form("3*z0^2 - z1^2"), (1, 1)) == 2
    assert evaluate(parse_form("z0"), (0, 1)) == 0
    with pytest.raises(ValueError):
        evaluate(parse_form("z0"), (0, 0))


def test_substitute_examples():
    swap = Mobius(0, 1, 1, 0)
    assert substitute(parse_form("z0^2"), swap) == parse_form("z1^2")
    assert mul(parse_form("z0"), parse_form("z1")) == parse_form("z0*z1")
    assert linear_form_at((0, 1)) == parse_form("z0")
    assert linear_form_at((1, 0)) == parse_form("-z1")
    assert evaluate(linear_form_at((2, 3)), (2, 3)) == 0


def test_substitute_inverse_roundtrip():
    rng = random.Random(17)
    for _ in range(100):
        f = rand_form(rng, rng.randint(0, 4))
        while True:
            entries = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        a, b, c, d = entries
        det = a * d - b * c
        g, inverse = Mobius(a, b, c, d), Mobius(d / det, -b / det, -c / det, a / det)
        assert substitute(substitute(f, g), inverse) == f


def test_evaluate_is_multiplicative():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_form(rng, rng.randint(0, 3))
        g = rand_form(rng, rng.randint(0, 3))
        p = (rng.randint(-4, 4), rng.randint(-4, 4))
        if p == (0, 0):
            p = (1, 1)
        assert evaluate(mul(f, g), p) == evaluate(f, p) * evaluate(g, p)


def _derivative_z0(f):
    """Partial derivative in z0 (degree drops by one)."""
    if f.degree == 0:
        return BinaryForm.zero(0)
    return BinaryForm(f.degree - 1, tuple((f.degree - k) * c for k, c in enumerate(f.coefficients[:-1])))


def test_squarefree_detection_via_derivative():
    rng = random.Random(31)
    for _ in range(40):
        f = rand_form(rng, rng.randint(1, 3))
        squared = mul(mul(f, f), rand_form(rng, 1))
        g = gcd([squared, _derivative_z0(squared)])
        assert g.degree >= 1  # repeated factor detected
    # a form with distinct roots is squarefree
    sf = mul(parse_form("z0 - z1"), parse_form("z0 - 2*z1"))
    assert gcd([sf, _derivative_z0(sf)]).degree == 0


def test_mobius_singular_rejected():
    with pytest.raises(ValueError):
        Mobius(1, 2, 2, 4)


def _to_sympy(f, z0, z1):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * z0 ** (f.degree - k) * z1**k
        for k, c in enumerate(f.coefficients)
    )


def test_gcd_matches_sympy():
    z0, z1 = sympy.symbols("z0 z1")
    rng = random.Random(23)
    for _ in range(60):
        pool = [rand_form(rng, 1, bound=3) for _ in range(4)]
        fs = []
        for _ in range(rng.randint(1, 3)):
            f = BinaryForm.one()
            for lin in rng.choices(pool, k=rng.randint(0, 4)):
                f = mul(f, lin)
            fs.append(f)
        expected = sympy.gcd_list([_to_sympy(f, z0, z1) for f in fs])
        got = _to_sympy(gcd(fs), z0, z1)
        assert sympy.Poly(got, z0, z1).monic() == sympy.Poly(expected, z0, z1).monic(), fs
