import pytest
import sympy

from toricglsm import catalog


@pytest.fixture
def p1():
    return catalog.by_name("P1")


@pytest.fixture
def p2():
    return catalog.by_name("P2")


@pytest.fixture
def p1xp1():
    return catalog.by_name("P1xP1")


@pytest.fixture
def f1():
    return catalog.by_name("F1")


@pytest.fixture
def golden_fans():
    return [catalog.by_name(name) for name in catalog.GOLDEN_NAMES]


@pytest.fixture
def sympy_divides():
    """g | f for binary forms, decided by sympy, which shares no code with forms."""
    z0, z1 = sympy.symbols("z0 z1")

    def expr(f):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * z0 ** (f.degree - k) * z1**k
            for k, c in enumerate(f.coefficients)
        )

    return lambda g, f: sympy.rem(expr(f), expr(g), z0, z1) == 0
