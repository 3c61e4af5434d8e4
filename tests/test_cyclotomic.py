"""Exact cyclotomic arithmetic.

Numeric oracles were computed by hand from minimal polynomials or with
independent modular checks; each is marked at the assertion.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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


def test_shrink_after_embedding_into_a_coprime_split():
    # zeta_24^9 = zeta_8^3 lies in Q(zeta_8); its canonical form at 24
    # spreads over several zeta_3 powers that cancel only modulo Phi_8.
    assert zeta(8, 3).embed(24).shrink_to(8) == zeta(8, 3)
    assert zeta(12, 3).embed(420).shrink_to(12) == zeta(12, 3)


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        CycNum(5, {1: 0.5})


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


# -- property tests of the packed kernel -------------------------------------
#
# Products are checked against evaluation at a primitive n-th root of unity
# r modulo a prime ell = 1 (mod n): x -> sum num_i r^i / den is a ring map
# Z[zeta_n][1/den] -> F_ell that uses none of the kernel's packing or
# reduction.  Coefficient sizes are drawn so that every slot width runs:
# small and word-sized ones pack into array slots, ones above 2^63 into
# wide slots; sparse operands take the convolution path.

CONDUCTORS = (9, 27, 63, 105, 930)
PAIRS = [(n, n) for n in CONDUCTORS] + [(9, 27), (27, 63), (63, 105), (9, 930)]
SIZES = {"small": (0, 9), "word": (2 ** 20, 2 ** 28), "wide": (2 ** 63, 2 ** 80)}


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _root_mod(n):
    """(ell, r): a prime ell = 1 mod n above 2^20, r of order exactly n."""
    ell = (2 ** 20 // n + 1) * n + 1
    while not _is_prime(ell):
        ell += n
    for g in range(2, ell):
        r = pow(g, (ell - 1) // n, ell)
        if all(pow(r, n // q, ell) != 1
               for q in range(2, n + 1) if n % q == 0 and _is_prime(q)):
            return ell, r


def _image(x, m, ell, r):
    """x, of conductor dividing m, evaluated at zeta_m -> r in F_ell."""
    k = m // x.n
    acc = sum(c * pow(r, i * k, ell) for i, c in enumerate(x.num))
    return acc * pow(x.den, -1, ell) % ell


@st.composite
def elements(draw, n):
    lo, hi = SIZES[draw(st.sampled_from(sorted(SIZES)))]
    coeff = st.builds(lambda m, s: m * s, st.integers(lo, hi),
                      st.sampled_from([1, -1]))
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=3))
    else:
        support = range(euler_phi(n))
    den = draw(st.integers(1, 6))
    return CycNum(n, {e: Fraction(draw(coeff), den) for e in support})


@st.composite
def pairs(draw):
    n1, n2 = draw(st.sampled_from(PAIRS))
    return draw(elements(n1)), draw(elements(n2))


def _canonical(x):
    return (len(x.num) == euler_phi(x.n) and x.den > 0
            and math.gcd(x.den, *x.num) == 1)


@settings(max_examples=120, database=None, derandomize=True, deadline=None)
@given(pairs())
def test_product_matches_evaluation_mod_ell(ab):
    a, b = ab
    c = a * b
    m = math.lcm(a.n, b.n)
    assert c.n == m and _canonical(c)
    ell, r = _root_mod(m)
    assert _image(c, m, ell, r) == \
        _image(a, m, ell, r) * _image(b, m, ell, r) % ell
    assert _image(a + b, m, ell, r) == \
        (_image(a, m, ell, r) + _image(b, m, ell, r)) % ell


@settings(max_examples=60, database=None, derandomize=True, deadline=None)
@given(pairs())
def test_canonical_form_is_unique(ab):
    a, b = ab
    back = (a + b) - b
    a_up = a.embed(back.n)
    assert (back.num, back.den) == (a_up.num, a_up.den)
    zero = a - a
    assert zero.den == 1 and not any(zero.num) and _canonical(zero)
    assert _canonical(a * b - b * a) and not (a * b - b * a)
    assert dict(a.coeffs) == {i: Fraction(c, a.den)
                              for i, c in enumerate(a.num) if c}


def test_slots_cover_growth_in_reduction():
    # At n = 1155 one coefficient of x^e mod Phi_n, summed in absolute value
    # over the 480 rows e = phi-1 .. 2 phi-2, reaches 1223 at position 115.
    # Aligning the signs of b with that column makes (a b)_115 about
    # 3.7 |a|_1 |b|_1, so a slot sized from |a|_1 |b|_1 alone would overflow.
    n, i = 1155, 115
    phi = euler_phi(n)
    signs = {j: (1 if zeta(n, phi - 1 + j).num[i] > 0 else -1)
             for j in range(phi) if zeta(n, phi - 1 + j).num[i]}
    a = CycNum(n, {phi - 1: 2 ** 22, 0: 1})
    b = CycNum(n, signs)
    c = a * b
    assert abs(c.num[i]) > 2 * sum(map(abs, a.num)) * sum(map(abs, b.num))
    ell, r = _root_mod(n)
    assert _image(c, n, ell, r) == _image(a, n, ell, r) * _image(b, n, ell, r) % ell


SPLITS = st.tuples(st.integers(1, 59), st.integers(2, 59)).filter(
    lambda mr: math.gcd(*mr) == 1 and mr[0] * mr[1] <= 2000)


@settings(max_examples=80, database=None, derandomize=True, deadline=None)
@given(st.data(), SPLITS)
def test_embed_shrink_round_trip(data, split):
    m, r = split
    y = data.draw(elements(m))
    up = y.embed(m * r)
    assert up.shrink_to(m) == y
    if euler_phi(m * r) > euler_phi(m):
        with pytest.raises(ValueError):
            (up + zeta(m * r)).shrink_to(m)


@st.composite
def units(draw):
    """Nonzero elements at composite conductors, sparse and dense."""
    x = draw(elements(draw(st.sampled_from((9, 12, 63, 105)))))
    assume(x)
    return x


@settings(max_examples=30, database=None, derandomize=True, deadline=None)
@given(units(), st.integers(-2 ** 16, 2 ** 16))
def test_inverse_matches_evaluation_mod_ell(x, c):
    inv = x.inverse()
    assert x * inv == 1 and _canonical(inv)
    ell, r = _root_mod(x.n)
    image = _image(x, x.n, ell, r)
    if image:
        assert _image(inv, x.n, ell, r) == pow(image, -1, ell)
    y = 1 - zeta(x.n) * c
    assert (x * y).norm() == x.norm() * y.norm()
