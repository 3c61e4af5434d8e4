"""Exact cyclotomic arithmetic.

Numeric oracles were computed by hand from minimal polynomials or with
independent modular checks; each is marked at the assertion.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from tamekit.arith import euler_phi, prime_factors
from tamekit.cyclotomic import (_ARRAY, CycNum, _PackedMatrix, _ZeroTest,
                                _pack, _slot_bytes, _table, _unpack,
                                cyclotomic_poly, zeta)

from reference import div, minus


def test_cyclotomic_poly_known_coefficients():
    # ascending coefficients; x-1, x^2+1, x^2-x+1, x^4-x^2+1
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_degree_is_totient():
    for n in range(1, 30):
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1


def _divided(num, den):
    """Quotient of integer polynomials (ascending), den monic; the
    remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = out[i - dd] = num[i]
        if c:
            for j, x in enumerate(den):
                num[i - dd + j] -= c * x
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def _recursive_poly(n):
    """Phi_n as x^n - 1 divided by Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divided(poly, _recursive_poly(d))
    return tuple(poly)


def test_cyclotomic_polys_from_binomials_match_recursive_division():
    # Phi_n and Psi_n = (x^n - 1)/Phi_n of `_table`, both Moebius
    # products of binomials, against division by every smaller Phi_d.
    for n in [*range(1, 401), 930, 3660, 10100]:
        phi = _recursive_poly(n)
        assert cyclotomic_poly(n) == phi, n
        assert _table(n)[4] == tuple(_divided([-1] + [0] * (n - 1) + [1],
                                              phi)), n


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


def test_rationals_compare_without_embedding(monkeypatch):
    # a determinant's rational 1 at conductor m meets conductor-1 ones
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 4),
              Fraction(-3, 4), Fraction(4, 3), Fraction(3, 2)]
    nums = [(x, CycNum.from_rational(x, n))
            for x in values for n in (1, 9, 45)]
    nums.append((Fraction(-1), zeta(9, 3) + zeta(9, 6)))  # reduced at 9

    def unused(self, m):
        raise AssertionError("two rationals need no common conductor")

    monkeypatch.setattr(CycNum, "embed", unused)
    for x, a in nums:
        for y, b in nums:
            assert (a == b) is (x == y), (a, b)


def test_equality_agrees_with_embedding_to_a_common_conductor():
    # rational and irrational values, each stored at a random multiple of
    # its own conductor, against the embed-then-compare reference
    rng = random.Random(66)

    def draw():
        d = rng.choice([1, 3, 5])
        x = CycNum.from_rational(Fraction(rng.randint(-1, 1),
                                          rng.randint(1, 2)))
        if rng.random() < 0.5:
            x = x + zeta(d, rng.randrange(d))
        return x.embed(d * rng.choice([1, 3, 9]))

    seen = set()
    for _ in range(400):
        a, b = draw(), draw()
        m = math.lcm(a.n, b.n)
        ea, eb = a.embed(m), b.embed(m)
        expected = ea.num == eb.num and ea.den == eb.den
        assert (a == b) is expected, (a, b)
        seen.add((expected, a.is_rational(), b.is_rational()))
    assert len(seen) == 6  # all but equal pairs of mixed kinds


def test_golden_section_minimal_polynomial():
    g = zeta(5) + zeta(5, 4)
    # 2cos(2pi/5) satisfies x^2 + x - 1 = 0
    assert minus(g * g + g, CycNum.from_rational(1)) == CycNum.from_rational(0)


def test_quadratic_gauss_sum_squares_to_five():
    t = minus(minus(zeta(5), zeta(5, 2)), zeta(5, 3)) + zeta(5, 4)
    assert (t * t).as_rational() == 5


def test_norms():
    # Norm(1 - zeta_5) = Phi_5(1) = 5, Norm(1 - zeta_12) = Phi_12(1) = 1
    one = CycNum.from_rational(1)
    assert minus(one, zeta(5)).norm() == 5
    assert minus(one, zeta(12)).norm() == 1
    assert zeta(7).norm() == 1
    assert CycNum.from_rational(Fraction(-2, 3)).norm() == Fraction(-2, 3)


def test_inverse_and_division():
    x = CycNum.from_rational(1) + zeta(7) * 2 + zeta(7, 3) * 3
    assert x * x.inverse() == CycNum.from_rational(1)
    assert div(x, x) == CycNum.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        CycNum.from_rational(0).inverse()


def test_galois_action():
    assert zeta(7).galois_apply(3) == zeta(7, 3)
    x = zeta(7) + zeta(7, 2) * 5
    assert x.galois_apply(2).galois_apply(3) == x.galois_apply(6)
    with pytest.raises(ValueError):
        zeta(6).galois_apply(2)


def test_conjugate():
    assert zeta(5).galois_apply(-1) == zeta(5, 4)
    x = zeta(8) + zeta(8, 2)
    assert x.galois_apply(-1) == zeta(8, 7) + zeta(8, 6)


def test_rationality_detection():
    assert CycNum.from_rational(Fraction(3, 4)).is_rational()
    assert not zeta(3).is_rational()
    # zeta_3 + zeta_3^2 = -1 even though two exponents are stored
    y = zeta(3) + zeta(3, 2)
    assert y.is_rational() and y.as_rational() == -1
    with pytest.raises(ValueError):
        zeta(3).as_rational()


def test_embed_and_shrink():
    assert zeta(3).embed(15).n == 15
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
        assert minus(a, a) == CycNum.from_rational(0)
        assert a * one == a
        if b:
            assert div(a, b) * b == a


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
# wide slots; sparse operands take the convolution path.  The cheap
# operands run as a second case beside the kernel's sparse and dense ones:
# single terms at exponents >= phi(n) take the wrap and fold of `_reduce`,
# and rationals from `from_rational`, conductor 1 included, the scaling.

CONDUCTORS = (9, 27, 63, 105, 930)
PAIRS = [(n, n) for n in CONDUCTORS] + [(9, 27), (27, 63), (63, 105), (9, 930)]
CHEAP_PAIRS = [(1, 9), (1, 930), (7, 7), (7, 21), (21, 21)]
KERNEL_SHAPES = ("sparse", "dense")
CHEAP_SHAPES = ("single", "rational")
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
def elements(draw, n, shapes=KERNEL_SHAPES):
    lo, hi = SIZES[draw(st.sampled_from(sorted(SIZES)))]
    coeff = st.builds(lambda m, s: m * s, st.integers(lo, hi),
                      st.sampled_from([1, -1]))
    shape = draw(st.sampled_from(shapes))
    den = draw(st.integers(1, 6))
    if shape == "rational":
        return CycNum.from_rational(Fraction(draw(coeff), den), n)
    if shape == "sparse":
        support = draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=3))
    elif shape == "single":  # zeta_n^n = 1
        support = [draw(st.integers(euler_phi(n), n))]
    else:
        support = range(euler_phi(n))
    return CycNum(n, {e: Fraction(draw(coeff), den) for e in support})


@st.composite
def pairs(draw, conductors, shapes):
    n1, n2 = draw(st.sampled_from(conductors))
    return draw(elements(n1, shapes)), draw(elements(n2, shapes))


def _canonical(x):
    return (len(x.num) == euler_phi(x.n) and x.den > 0
            and math.gcd(x.den, *x.num) == 1)


def _check_product(a, b):
    c = a * b
    m = math.lcm(a.n, b.n)
    assert c.n == m and _canonical(c)
    ell, r = _root_mod(m)
    assert _image(c, m, ell, r) == \
        _image(a, m, ell, r) * _image(b, m, ell, r) % ell
    assert _image(a + b, m, ell, r) == \
        (_image(a, m, ell, r) + _image(b, m, ell, r)) % ell


def _check_canonical(a, b):
    back = minus(a + b, b)
    a_up = a.embed(back.n)
    assert (back.num, back.den) == (a_up.num, a_up.den)
    zero = minus(a, a)
    assert zero.den == 1 and not any(zero.num) and _canonical(zero)
    assert _canonical(minus(a * b, b * a)) and not minus(a * b, b * a)
    assert dict(a.coeffs) == {i: Fraction(c, a.den)
                              for i, c in enumerate(a.num) if c}


@settings(max_examples=120, database=None, derandomize=True, deadline=None)
@given(pairs(PAIRS, KERNEL_SHAPES))
def test_product_matches_evaluation_mod_ell(ab):
    _check_product(*ab)


@settings(max_examples=60, database=None, derandomize=True, deadline=None)
@given(pairs(PAIRS, KERNEL_SHAPES))
def test_canonical_form_is_unique(ab):
    _check_canonical(*ab)


@settings(max_examples=120, database=None, derandomize=True, deadline=None)
@given(pairs(PAIRS + CHEAP_PAIRS, KERNEL_SHAPES + CHEAP_SHAPES))
def test_cheap_operands_match_evaluation_mod_ell(ab):
    _check_product(*ab)
    _check_canonical(*ab)


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
def units(draw, shapes):
    """Nonzero elements of the given shapes at composite conductors."""
    x = draw(elements(draw(st.sampled_from((9, 12, 63, 105))), shapes))
    assume(x)
    return x


def _check_inverse(x, c):
    inv = x.inverse()
    assert x * inv == 1 and _canonical(inv)
    ell, r = _root_mod(x.n)
    image = _image(x, x.n, ell, r)
    if image:
        assert _image(inv, x.n, ell, r) == pow(image, -1, ell)
    y = minus(1, zeta(x.n) * c)
    assert (x * y).norm() == x.norm() * y.norm()


@settings(max_examples=30, database=None, derandomize=True, deadline=None)
@given(units(KERNEL_SHAPES), st.integers(-2 ** 16, 2 ** 16))
def test_inverse_matches_evaluation_mod_ell(x, c):
    _check_inverse(x, c)


# rational units invert by Fraction arithmetic, the rest by conjugates
@settings(max_examples=30, database=None, derandomize=True, deadline=None)
@given(units(CHEAP_SHAPES), st.integers(-2 ** 16, 2 ** 16))
def test_cheap_inverse_matches_evaluation_mod_ell(x, c):
    _check_inverse(x, c)


# -- the packed table kernel --------------------------------------------------
#
# _PackedMatrix.dot and .combine against plain CycNum sums.  Weights up to
# 2^40 on small operands make the weights, not the operands, set the slot
# width, so a bound that left them out would overflow its slots.

DOT_PAIRS = [(1, 1), (9, 9), (27, 27), (63, 63), (930, 930), (27, 9),
             (63, 1), (63, 21)]
WEIGHTS = st.one_of(
    st.integers(-2 ** 40, 2 ** 40),
    st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.integers(1, 12)))


def _plain_dot(w, a, b):
    return sum((c * x * y for c, x, y in zip(w, a, b)),
               CycNum.from_rational(0))


def _plain_combine(rows, coeffs):
    zero = CycNum.from_rational(0)
    return [sum((c * rows[t][j] for t, c in coeffs.items()), zero)
            for j in range(len(rows[0]))]


@st.composite
def dot_cases(draw):
    """A matrix whose rows share entry objects, as a table's do, operands
    at its conductor or a divisor of it, weights, and row coefficients."""
    n1, n2 = draw(st.sampled_from(DOT_PAIRS))
    entries = draw(st.lists(elements(n1), min_size=1, max_size=3))
    width = draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(entries)) for _ in range(width)]
            for _ in range(draw(st.integers(1, 3)))]
    values = [draw(elements(n2)) for _ in range(width)]
    weights = draw(st.lists(WEIGHTS, min_size=width, max_size=width))
    coeffs = draw(st.dictionaries(st.integers(0, len(rows) - 1), WEIGHTS))
    return rows, values, weights, coeffs


@settings(max_examples=60, database=None, derandomize=True, deadline=None)
@given(dot_cases())
def test_dot_matches_plain_sums(case):
    rows, values, weights, coeffs = case
    packed = _PackedMatrix(rows)
    got = packed.dot(values, weights)
    m = math.lcm(*(x.n for x in values + rows[0]))
    assert len(got) == len(rows)
    for row, g in zip(rows, got):
        assert g.n == m and _canonical(g)
        assert g == _plain_dot(weights, values, row)
    got = packed.combine(coeffs)
    assert all(g.n == packed.n and _canonical(g) for g in got)
    assert got == _plain_combine(rows, coeffs)


def test_dot_rejects_an_operand_past_the_matrix_conductor():
    # the matrix is not re-embedded: zeta_27 has no image in Q(zeta_9)
    packed = _PackedMatrix([[zeta(9), zeta(9, 2)]])
    with pytest.raises(ValueError, match="cannot embed conductor 27 into 9"):
        packed.dot([zeta(27), zeta(9)], [1, 1])
    assert packed.dot([zeta(3), zeta(9)], [1, 1]) == \
        [zeta(3) * zeta(9) + zeta(9) * zeta(9, 2)]


@pytest.mark.parametrize("n", [1, 9, 63])
def test_dot_at_each_slot_width(n):
    # L (1 + spread) sets the width: at n = 9, 1 + spread = 4, so L = 8191
    # still fits 16-bit slots and 8192 needs 32.  For each width the largest
    # L it holds and the next one up both run, the sum attains L, and the
    # kernel packs at exactly that width.
    # zeta^(phi-1) squared lands in slot 2 phi - 2, so the reduction runs.
    phi, spread = _table(n)[:2]
    x = zeta(n, phi - 1)
    seen = set()
    for bits in (15, 31, 63, 90):
        for extra in (0, 1):
            top = (2 ** bits - 1) // (1 + spread) + extra
            w = [top // 2, top - top // 2]
            packed = _PackedMatrix([[x, x]])
            got, = packed.dot([x, x], w)
            assert got == x * x * top
            kb = _slot_bytes(top * (1 + spread))
            assert set(packed._packs) == {(kb, True)}
            seen.add(kb)
    assert seen == {2, 4, 8, 9, 12}


def _shared_rows(rng, n, big, dens):
    """Four rows of length 6 at conductor n that share their entries:
    roots of unity, one row with `big` among them, one with -big and big^2
    at different places, and with `dens` some entries over 3 or 4.  Three
    weight lists: Fractions, ones, and large ints that outweigh the
    entries."""
    roots = [zeta(n, e) for e in range(n)]

    def operands(specials):
        xs = [rng.choice(roots) for _ in range(6)]
        for x in specials:
            xs[rng.randrange(6)] = x
        if dens:
            i = rng.randrange(6)
            xs[i] = div(xs[i], rng.choice((3, 4)))
        return xs

    rows = [operands(()), operands((big,)), operands((-big, big * big)),
            operands(())]
    weights = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(6)],
               [1] * 6,
               [rng.randint(-2 ** 40, 2 ** 40) for _ in range(6)]]
    return rows, weights


@pytest.mark.parametrize("dens", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_dot_shared_lists_against_the_cycnum_loop(seed, dens):
    # Every row as operands against the matrix of all four, under every
    # weight list, and every row weighted by every weight list as
    # coefficients: the bound takes each column's largest |B|_1, and with
    # denominators both the entries' and the operands' are cleared.
    rng = random.Random(seed)
    n = (9, 27, 45, 63)[seed]
    big = CycNum(n, {e: rng.randint(-40, 40) for e in range(n)})
    rows, weights = _shared_rows(rng, n, big, dens)
    packed = _PackedMatrix(rows)
    for w in weights:
        for values in rows:
            assert packed.dot(values, w) == \
                [_plain_dot(w, values, row) for row in rows]
        coeffs = dict(enumerate(w[:4]))
        assert packed.combine(coeffs) == _plain_combine(rows, coeffs)


def test_dot_list_bound_forces_a_wider_slot():
    # Two large operands, each met by a large entry in a different row: a
    # row's sum needs 16-bit slots, the bound sum_j |A_j|_1 max_t |B_tj|_1,
    # which takes both large entries, needs 32, and the result is exact
    # either way.
    n = 9
    spread = _table(n)[1]
    big = CycNum(n, {e: 20 for e in range(4)})  # |big|_1 = 80
    l1 = sum(map(abs, big.num))
    roots = [zeta(n, e) for e in range(6)]
    rows = [[big] + roots[1:], [roots[0], big] + roots[2:]]
    values = [big, big] + roots[2:]
    exact = l1 * l1 + l1 + 4
    assert _slot_bytes(exact * (1 + spread)) == 2
    assert _slot_bytes((2 * l1 * l1 + 4) * (1 + spread)) == 4
    packed = _PackedMatrix(rows)
    assert packed.dot(values, [1] * 6) == \
        [_plain_dot([1] * 6, values, row) for row in rows]
    assert set(packed._packs) == {(4, True)}


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [30, 50, 930])
def test_zero_test_against_canonical_forms(n):
    # D vanishes in Q(zeta_n) exactly when Phi_n | D; the zero test must
    # agree with the canonical form on multiples of Phi_n, on 1 and Psi_n,
    # and on random D, some of them Phi_n multiples plus a small error.
    rng = random.Random(n)
    phi, _, _, big, small = _table(n)[:5]

    def vanishes(raw):
        test = _ZeroTest(n, sum(map(abs, raw)))
        return test.is_zero(test.times_binomials(_pack(raw, test.kb)))

    r = [rng.randint(-9, 9) for _ in range(n - phi)]
    r[-1] = 5
    assert vanishes(_poly_mul(big, r))
    assert not vanishes([1])
    assert not vanishes(list(small))
    # 2^k - x vanishes at x = 2^k: slots of exactly k bits would pass it.
    for bits in (16, 32, 64):
        assert not vanishes([2 ** bits, -1])
    for trial in range(40):
        raw = [0] * n
        if trial % 2:
            scale = rng.choice([1, 1000, 10 ** 6])
            raw = _poly_mul(big, [rng.randint(-scale, scale)
                                  for _ in range(n - phi)])
        for _ in range(rng.choice([0, 1, 3])):
            raw[rng.randrange(n)] += rng.choice([-2, -1, 1, 2])
        x = CycNum(n, dict(enumerate(raw)))
        assert vanishes(raw) == (not x), trial


@pytest.mark.parametrize("n", [30, 930])
def test_zero_test_rotations_match_products(n):
    # x y - z with x at a conductor dividing n: x's terms rotate y Psi_n.
    rng = random.Random(n + 1)
    divisors = [m for m in range(1, n + 1) if n % m == 0 and m <= 30]

    def element(m, terms, spread):
        return CycNum(m, {rng.randrange(m): rng.randint(-spread, spread)
                          for _ in range(terms)})

    for trial in range(30):
        x = element(rng.choice(divisors), 4, 50)
        y = element(n, 12, 5)
        z = x * y + (element(n, 1, 1) if trial % 3 == 0 else 0)
        l1 = [sum(map(abs, v.num)) for v in (x, y, z)]
        test = _ZeroTest(n, l1[0] * l1[1] + l1[2])
        got = test.is_zero(
            test.rotations(x, test.times_binomials(test.pack(y.num)))
            - test.times_binomials(test.pack(z.num)))
        assert got == (x * y == z), trial


def test_binomial_annihilator_is_psi_times_a_unit():
    # h = prod_{q | n} (x^(n/q) - 1) and Psi_n = (x^n - 1)/Phi_n have the
    # same norm at zeta_n, up to sign; Psi_n divides h in Z[x], so h/Psi_n
    # is a unit there.  Psi_n is the reference division's.
    for n in [*range(1, 121), 156, 180, 210]:
        h = CycNum.from_rational(1, n)
        for q in prime_factors(n):
            h = h * minus(zeta(n, n // q), 1)
        psi = _divided([-1] + [0] * (n - 1) + [1], _recursive_poly(n))
        psi = CycNum(n, dict(enumerate(psi)))
        assert abs(h.norm()) == abs(psi.norm()), n


@pytest.mark.parametrize("n", [1, 9, 30, 930])
def test_zero_test_needs_the_embedding_bound(n):
    # zeta_n - B has the representative x - B (1 - B at n = 1), which
    # vanishes at x = B, so the test of kb-byte slots, B = 2^(8 kb), reads
    # 0 for it: |sigma(zeta_n - B)| >= B - 1 in every embedding, past that
    # test's bound B - 2.  With bound B + 1 it is nonzero, as it is.
    for kb in (1, 2, 3):
        B = 1 << 8 * kb
        assert minus(zeta(n), B)
        short, covered = _ZeroTest(n, B - 2), _ZeroTest(n, B + 1)
        assert (short.kb, covered.kb) == (kb, kb + 1)
        for test, vanishes in ((short, True), (covered, False)):
            v = test.rotations(zeta(n), 1) - B  # x - B at the slot base
            assert test.is_zero(test.times_binomials(v)) is vanishes


def test_zero_test_slots_hold_the_bound_and_the_operands():
    # the fewest bytes kb with 2^(8 kb) - 1 > bound
    for bound, kb in [(0, 1), (254, 1), (255, 2), (65534, 2), (65535, 3)]:
        assert _ZeroTest(7, bound).kb == kb
    # packed operands must fit a slot with a sign
    test = _ZeroTest(7, 200)
    assert test.kb == 1
    assert test.pack([127, -127]) == _pack([127, -127], 1)
    with pytest.raises(ValueError, match="does not fit 1-byte slots"):
        test.pack([128, 0])


@pytest.mark.parametrize("kb", [1, 2, 3, 4, 8])
def test_pack_round_trip_matches_the_per_coefficient_reference(kb):
    # every width but 3 converts as a C array; the reference packs one
    # little-endian coefficient at a time, with signed slots unbiased
    assert (kb in _ARRAY) is (kb != 3)
    top = 2 ** (8 * kb - 1) - 1
    rng = random.Random(kb)
    for count in (1, 2, 7, 64):
        coeffs = [rng.randint(-top, top) for _ in range(count)]
        coeffs[0], coeffs[-1] = top, -top
        ref = sum(c << (8 * kb * i) for i, c in enumerate(coeffs))
        assert _pack(coeffs, kb) == ref
        assert _unpack(ref, count, kb) == coeffs


def test_slot_widths_leave_one_byte_to_the_zero_test():
    # products and reductions keep 2-byte slots at the smallest bounds
    assert [_slot_bytes(b) for b in (0, 1, 127, 128, 32767, 32768)] == \
        [2, 2, 2, 2, 2, 4]
