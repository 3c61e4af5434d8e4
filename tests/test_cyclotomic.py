"""Exact cyclotomic arithmetic.

Numeric oracles were computed by hand from minimal polynomials or with
independent modular checks; each is marked at the assertion.
"""

import random
from fractions import Fraction

import pytest

from tamekit.arith import euler_phi
from tamekit.cyclotomic import CycNum, cyclotomic_poly, zeta


def test_cyclotomic_poly_known_coefficients():
    # ascending coefficients; x-1, x^2+1, x^2-x+1, x^4-x^2+1
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_degree_is_totient():
    for n in range(1, 30):
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1


def test_root_of_unity_relations():
    z = zeta(5)
    assert z ** 5 == CycNum.from_rational(1)
    assert sum((zeta(5, k) for k in range(5)), CycNum.from_rational(0)) \
        == CycNum.from_rational(0)
    i = zeta(4)
    assert i * i == CycNum.from_rational(-1)


def test_cross_conductor_equality():
    # zeta_6 = -zeta_3^2, compared across different stored conductors
    assert zeta(6) == -zeta(3, 2)
    assert zeta(3) * zeta(5) == zeta(15, 8)


def test_golden_section_minimal_polynomial():
    g = zeta(5) + zeta(5, 4)
    # 2cos(2pi/5) satisfies x^2 + x - 1 = 0
    assert g * g + g - CycNum.from_rational(1) == CycNum.from_rational(0)


def test_quadratic_gauss_sum_squares_to_five():
    t = zeta(5) - zeta(5, 2) - zeta(5, 3) + zeta(5, 4)
    assert (t * t).as_rational() == 5


def test_norms():
    # Norm(1 - zeta_5) = Phi_5(1) = 5, Norm(1 - zeta_12) = Phi_12(1) = 1
    one = CycNum.from_rational(1)
    assert (one - zeta(5)).norm() == 5
    assert (one - zeta(12)).norm() == 1
    assert zeta(7).norm() == 1
    assert CycNum.from_rational(Fraction(-2, 3)).norm() == Fraction(-2, 3)


def test_inverse_and_division():
    x = CycNum.from_rational(1) + zeta(7) * 2 + zeta(7, 3) * 3
    assert x * x.inverse() == CycNum.from_rational(1)
    assert (x / x) == CycNum.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        CycNum.from_rational(0).inverse()


def test_galois_action():
    assert zeta(7).galois_apply(3) == zeta(7, 3)
    x = zeta(7) + zeta(7, 2) * 5
    assert x.galois_apply(2).galois_apply(3) == x.galois_apply(6)
    with pytest.raises(ValueError):
        zeta(6).galois_apply(2)


def test_conjugate():
    assert zeta(5).conjugate() == zeta(5, 4)
    x = zeta(8) + zeta(8, 2)
    assert x.conjugate() == zeta(8, 7) + zeta(8, 6)


def test_rationality_detection():
    assert CycNum.from_rational(Fraction(3, 4)).is_rational()
    assert not zeta(3).is_rational()
    # zeta_3 + zeta_3^2 = -1 even though two exponents are stored
    y = zeta(3) + zeta(3, 2)
    assert y.is_rational() and y.as_rational() == -1
    with pytest.raises(ValueError):
        zeta(3).as_rational()


def test_embed_and_shrink():
    assert zeta(3).embed(15).conductor == 15
    assert zeta(3).embed(15).shrink_to(3) == zeta(3)
    assert CycNum.from_rational(7).embed(21).shrink_to(1).as_rational() == 7
    with pytest.raises(ValueError):
        zeta(15).shrink_to(3)
    with pytest.raises(ValueError):
        zeta(3).embed(7)


def test_dict_round_trip():
    x = zeta(12) * Fraction(2, 3) - CycNum.from_rational(5)
    assert CycNum.from_dict(x.to_dict()) == x


def _random_element(rng, n):
    coeffs = {rng.randrange(n): Fraction(rng.randrange(-4, 5),
                                         rng.randrange(1, 4))
              for _ in range(rng.randrange(1, 4))}
    return CycNum(n, coeffs)


def test_ring_axioms_sampled():
    rng = random.Random(7)
    one = CycNum.from_rational(1)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 8, 12])
        a, b, c = (_random_element(rng, n) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == CycNum.from_rational(0)
        assert a * one == a
        if b:
            assert (a / b) * b == a


def test_norm_is_multiplicative_sampled():
    rng = random.Random(11)
    for _ in range(20):
        a = _random_element(rng, 9)
        b = _random_element(rng, 9)
        assert (a * b).norm() == a.norm() * b.norm()
