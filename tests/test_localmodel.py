"""Formal tame local model: monomial algebra, semigroup actions,
resolvends, and the equivariant determinant."""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tamekit import localmodel
from tamekit.arith import smallest_prime_in_class
from tamekit.characters import CharTable, VirtualChar
from tamekit.cli import main
from tamekit.cyclotomic import CycNum, _PackedMatrix, zeta
from tamekit.groups import PRESET_NAMES, FiniteGroup, preset
from tamekit.localmodel import (TameElement, _ladder_monomials,
                                _ladder_orbit, _sigma_equivariant,
                                _twisted_sum, check_window, det_resolvend,
                                frobenius_action, infer_q, sigma_action,
                                verify_factorization, verify_kummer_generator)
from tamekit.stickelberger import (pairing, star_pairing,
                                   verify_adams_identities,
                                   verify_induction_identities)

from reference import monomial, resolvend, row_scaled, row_sum, tame_pow

ONE = CycNum.from_rational(1)


def test_monomial_algebra():
    a = TameElement(Fraction(1, 3))
    b = TameElement(Fraction(1, 2), zeta(4))
    ab = a * b
    assert (ab.exponent, ab.coeff) == (Fraction(5, 6), zeta(4))
    assert tame_pow(a, 3) == TameElement(1)
    assert tame_pow(a, -2) == a.inverse() * a.inverse() == \
        TameElement(Fraction(-2, 3))
    # the report form of the one-term sum it used to be
    assert ab.to_dict() == {"terms": [["5/6", zeta(4).to_dict()]]}
    assert TameElement(-2).to_dict() == {"terms": [["-2", ONE.to_dict()]]}


def test_zero_one_and_scalars():
    one = TameElement()
    a = TameElement(Fraction(2, 5))
    assert a * one == a == one * a
    assert one == TameElement(0, ONE) and one.exponent == 0
    half = TameElement(0, CycNum.from_rational(Fraction(1, 2)))
    assert half * TameElement(0, CycNum.from_rational(2)) == one
    assert half != one and a != TameElement(Fraction(2, 5), zeta(3))
    # a row drops the zeros its sums make
    assert row_sum({0: ONE}, {0: -ONE}) == {}
    with pytest.raises(ZeroDivisionError):
        TameElement(1, CycNum.from_rational(0)).inverse()


def test_inverse_requires_monomial():
    # the type holds one term, so every nonzero element is invertible
    assert TameElement.__slots__ == ("exponent", "coeff")
    x = TameElement(Fraction(-3, 7), zeta(5, 2) * 3)
    assert x * x.inverse() == TameElement()


def test_sigma_twists_by_root_of_unity():
    assert sigma_action({1: ONE}, 3) == {1: zeta(3)}
    # integer powers are fixed
    assert sigma_action({6: ONE}, 3) == {6: ONE}
    # the twist depends only on the exponent a/m, not on m
    assert sigma_action({2: ONE}, 6)[2] == sigma_action({1: ONE}, 3)[1] == \
        zeta(3)


def test_sigma_has_finite_order():
    x = {3: zeta(5), -1: ONE}
    y = x
    for _ in range(7):
        y = sigma_action(y, 7)
    assert y == x and sigma_action(x, 7) != x


def test_frobenius_acts_on_coefficients():
    x = TameElement(Fraction(1, 3), zeta(5))
    assert frobenius_action(x, 7) == TameElement(Fraction(1, 3), zeta(5, 2))


def test_frobenius_sigma_commutation():
    # phi o sigma = sigma^q o phi on each term of a row
    rng = random.Random(13)

    def phi(row, m, q):
        return {a: frobenius_action(TameElement(Fraction(a, m), c), q).coeff
                for a, c in row.items()}

    for _ in range(30):
        m = rng.choice([3, 5, 7, 9])
        q = rng.choice([2, 11, 13])
        if q % m == 0:
            continue
        x = row_sum(*({rng.randrange(-6, 7): zeta(m, rng.randrange(m))
                       * rng.randrange(1, 3)}
                      for _ in range(rng.randrange(1, 4))))
        lhs = phi(sigma_action(x, m), m, q)
        rhs = phi(x, m, q)
        for _ in range(q):
            rhs = sigma_action(rhs, m)
        assert lhs == rhs


def test_beta_elements():
    # beta and beta* of order 3: the ladders from 0 and from (1 - 3)/2
    third = CycNum.from_rational(Fraction(1, 3))
    assert _ladder_orbit(3, 0)[0] == {0: third, 1: third, 2: third}
    assert _ladder_orbit(3, -1)[0] == {-1: third, 0: third, 1: third}
    with pytest.raises(ValueError, match="must be odd"):
        verify_factorization(preset("C4"), 1)


def _ladders(G):
    """(s, start) for each odd-order s of G and both of its ladders."""
    return [(s, start) for s in range(G.n) if G.element_order(s) % 2
            for start in {0, (1 - G.element_order(s)) // 2}]


def test_resolvend_equivariance(monkeypatch):
    cases = []
    for name in ("C3", "C5", "S3", "F21"):
        G = preset(name)
        for s, start in _ladders(G):
            # the definition, sigma(r[g]) = r[g s^-1], on the reference
            r = resolvend(G, s, start)
            m, s_inv = len(r), G.power(s, -1)
            assert all(sigma_action(x, m) == r[G.mul(g, s_inv)]
                       for g, x in r.items())
            # the orbit the check lays on <s> is that resolvend
            assert list(_ladder_orbit(m, start)) == \
                [r[G.power(s, -i)] for i in range(m)]
            cases.append((G, s, start))

    def unused(*args):
        raise AssertionError("the rotation route reads no sigma_action")

    monkeypatch.setattr(localmodel, "sigma_action", unused)
    for G, s, start in cases:
        assert _sigma_equivariant(G, s, start)


def _altered_orbits(monkeypatch, alter):
    """`_ladder_orbit` with alter(orbit, m) in place of each orbit."""
    orbit_of = localmodel._ladder_orbit
    monkeypatch.setattr(localmodel, "_ladder_orbit", lambda m, start: alter(
        list(orbit_of(m, start)), m))


@pytest.mark.parametrize("name", ["C7", "C9", "F21"])
def test_a_swapped_or_shifted_orbit_breaks_equivariance(monkeypatch, name):
    G = preset(name)
    moved = [(s, start) for s, start in _ladders(G)
             if G.element_order(s) > 1]

    def swapped(orbit, m):
        orbit[0], orbit[1] = orbit[1], orbit[0]
        return orbit

    def shifted(orbit, m):
        # times pi^(1/m)
        orbit[1] = {a + 1: c for a, c in orbit[1].items()}
        return orbit

    for alter in (swapped, shifted):
        with monkeypatch.context() as patch:
            _altered_orbits(patch, alter)
            for s, start in moved:
                assert not _sigma_equivariant(G, s, start), (alter, s, start)


@pytest.mark.parametrize("name", ["C7", "C9", "F21"])
def test_the_powers_of_s_inverse_break_only_equivariance(monkeypatch, name):
    # the orbit laid on s^-i in place of s^i: r[g s^-1] is then the
    # wrong translate, while each determinant reads only chi at s
    G = preset(name)
    CharTable.of(G)
    powers = FiniteGroup.cyclic_subgroup
    monkeypatch.setattr(FiniteGroup, "cyclic_subgroup",
                        lambda self, s: powers(self, self.inv[s]))
    for s in range(G.n):
        rep = verify_factorization(G, s)
        moved = G.element_order(s) > 1
        assert rep["equivariance"] == {"plain": not moved, "star": not moved}
        for c in rep["checks"]:
            assert c["plain_matches_pairing"] and c["star_matches_pairing"]
            assert c["adams_ratio"] and c["f_matches"]


def test_cocycle_validation():
    G = preset("F21")
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    t = next(g for g in range(G.n) if G.element_order(g) == 3)
    k = next(k for k in range(1, 7) if G.conjugate(t, s) == G.power(s, k))
    q = smallest_prime_in_class(k, 7)
    assert verify_factorization(G, s, t, q)["q"] == q
    with pytest.raises(ValueError, match="relation"):
        verify_factorization(G, s, t, smallest_prime_in_class(k + 1, 7))
    with pytest.raises(ValueError, match="prime power"):
        verify_factorization(G, s, t, 6)
    with pytest.raises(ValueError, match="wild"):
        verify_factorization(G, s, t, 7)


def test_residue_size_above_the_bound_is_rejected_at_once():
    # 2^61 - 1 is a prime = 1 mod 3; trial division up to its square root
    # would take about 1.5 * 10^9 steps, and both verifiers refuse it first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="prime power up to"):
        verify_factorization(preset("C3"), 1, q=2 ** 61 - 1)
    with pytest.raises(ValueError, match="prime power up to"):
        verify_kummer_generator(3, 1, q=2 ** 61 - 1)
    assert time.perf_counter() - start < 2


def test_infer_q_defaults():
    for name, q in (("C3", 7), ("C5", 11), ("C7", 29), ("C9", 19)):
        G = preset(name)
        assert infer_q(G, 1) == q
    G = preset("F21")
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    t = next(g for g in range(G.n) if G.conjugate(g, s) == G.power(s, 2))
    assert infer_q(G, s, t) == 2
    assert infer_q(G, 0) == 2


def test_det_resolvend_is_pairing_monomial():
    for name in ("C5", "S3", "F21"):
        G = preset(name)
        T = CharTable.of(G)
        for s, start in _ladders(G):
            for t in range(T.k):
                chi = VirtualChar.irreducible(T, t)
                want = star_pairing(chi, s) if start else pairing(chi, s)
                assert det_resolvend(chi, s, start) == TameElement(want)


def test_kummer_generator_reports():
    for e in (1, 3, 5):
        for n in (0, (1 - e) // 2):
            rep = verify_kummer_generator(e, n)
            assert rep["pass"], (e, n)
    # even orders are admitted too
    assert verify_kummer_generator(4, 0)["pass"]
    with pytest.raises(ValueError):
        verify_kummer_generator(3, 3)
    with pytest.raises(ValueError, match=r"window offset 9 out of range "
                                         r"for \|s\| = 9"):
        verify_kummer_generator(9, 9)
    # the order bound is check_window's, not a failure inside groups.preset
    for e in (361, 0):
        with pytest.raises(ValueError,
                           match=rf"^order e = {e} must be in 1\.\.360$"):
            verify_kummer_generator(e, 0)
        with pytest.raises(ValueError,
                           match=rf"^order e = {e} must be in 1\.\.360$"):
            check_window(e, 0, None)
    # the unit check needs a prime q = 1 mod e
    for e, n, q in ((9, 1, 64), (7, 3, 2)):
        with pytest.raises(ValueError, match="prime = 1 mod"):
            verify_kummer_generator(e, n, q=q)


def test_kummer_unit_check_at_a_large_q_within_budget():
    # the unit check reads the few lambda-coordinates it needs off the
    # q-adic image, with no table of q powers of zeta_q; 0.01 s on a
    # 2-core x86-64 VM, CPython 3.11
    start = time.perf_counter()
    rep = verify_kummer_generator(9, -4, q=1000099)
    elapsed = time.perf_counter() - start
    assert elapsed < 2, elapsed
    assert rep["pass"] and rep["unit_determinant"]["lambda_valuation"] == 0


@pytest.mark.parametrize("m", range(1, 20))
def test_dft_matches_the_plain_sums(m):
    # each ladder's (k_j, c_j) against F_j = sum_i sigma^(-i)(ladder)
    # zeta_m^(ij), summed term by term
    for start in {0, (1 - m) // 2, 1, m - 1}:
        orbit = _ladder_orbit(m, start)
        factors = _ladder_monomials(m, start)
        assert len(factors) == m
        for j, (k, c) in enumerate(factors):
            plain = row_sum(*(row_scaled(orbit[-i % m], zeta(m, i * j % m))
                              for i in range(m)))
            assert {k: c} == plain, (start, j)


@pytest.mark.parametrize("e", [1, 3, 4, 9, 15])
def test_twisted_sums_match_the_product_loop(e, monkeypatch):
    # every offset of both ladders; at e = 15 the reduction is packed
    def unused(*args):
        raise AssertionError("the twisted route reads no DFT")

    monkeypatch.setattr(_PackedMatrix, "dot", unused)
    monkeypatch.setattr(localmodel, "_ladder_monomials", unused)
    for start in {0, (1 - e) // 2}:
        orbit = _ladder_orbit(e, start)
        for t in range(-e, e):
            loop = row_sum(*(row_scaled(x, zeta(e, t * j % e))
                             for j, x in enumerate(orbit)))
            assert _twisted_sum(orbit, t) == loop, (start, t)


def _kummer_routes(n):
    checks = verify_kummer_generator(9, n)["checks"]
    return ({c["det_route"] for c in checks},
            {c["twisted_sum"] for c in checks})


@pytest.mark.parametrize("n", [1, -4])
def test_rotated_eigenfactors_break_only_the_det_route(cold_order_caches,
                                                       monkeypatch, n):
    monomials = localmodel._ladder_monomials

    def rotated(m, start):
        factors = monomials(m, start)
        return factors[1:] + factors[:1]

    monkeypatch.setattr(localmodel, "_ladder_monomials", rotated)
    assert _kummer_routes(n) == ({False}, {True})


def _summed_eigenfactor(monkeypatch):
    """Row 1 of every ladder DFT's `dot` becomes row 0 plus row 1: only a
    broken DFT gives a non-monomial eigenfactor."""
    table_of = localmodel.cyclic_table

    def broken(m):
        table = table_of(m)

        def dot(values, weights):
            f = table.packed.dot(values, weights)
            return f[:1] + [f[0] + f[1]] + f[2:] if m > 1 else f

        return SimpleNamespace(packed=SimpleNamespace(dot=dot),
                               sizes=table.sizes)

    monkeypatch.setattr(localmodel, "cyclic_table", broken)


def test_a_non_monomial_eigenfactor_raises_naming_its_row(cold_order_caches,
                                                           monkeypatch):
    _summed_eigenfactor(monkeypatch)
    G = preset("C3")
    with pytest.raises(ValueError,
                       match=r"^eigenfactor for row 1 is not a monomial$"):
        verify_factorization(G, 1)


def test_a_non_monomial_eigenfactor_exits_three(cold_order_caches,
                                                monkeypatch, capsys):
    _summed_eigenfactor(monkeypatch)
    assert main(["localmodel", "verify", "--group", "C3", "--s", "1"]) == 3
    out, err = capsys.readouterr()
    assert err == ("error: ValueError: eigenfactor for row 1 is not a "
                   "monomial\n"), err
    assert not out


@pytest.mark.parametrize("n", [1, -4])
def test_shifted_rotation_breaks_only_the_twisted_route(cold_order_caches,
                                                        monkeypatch, n):
    folded = localmodel._folded
    monkeypatch.setattr(localmodel, "_folded", lambda m, terms: folded(
        m, ((e + 1, c) for e, c in terms)))
    assert _kummer_routes(n) == ({True}, {False})


@pytest.mark.parametrize("name", ["C7", "C9", "F21"])
def test_shifted_rotation_breaks_only_equivariance(monkeypatch, name):
    # zeta_D^(a+1) in place of zeta_D^a: one slot too far
    folded = localmodel._folded
    monkeypatch.setattr(localmodel, "_folded", lambda m, terms: folded(
        m, ((e + 1, c) for e, c in terms)))
    G = preset(name)
    for s in range(G.n):
        rep = verify_factorization(G, s)
        moved = G.element_order(s) > 1
        assert rep["equivariance"] == {"plain": not moved, "star": not moved}
        for c in rep["checks"]:
            assert c["plain_matches_pairing"] and c["star_matches_pairing"]
            assert c["adams_ratio"] and c["f_matches"]


def test_factorization_reports():
    for name in ("C3", "S3"):
        G = preset(name)
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            rep = verify_factorization(G, s)
            assert rep["pass"], (name, s)
    with pytest.raises(ValueError):
        verify_factorization(preset("S3"), preset("S3").names.index("(1 2)"))


def _det_by_character(G, x, chi):
    """Reference: every eigenfactor recomputed for each character, along
    the least generator g0 of the cyclic group that x's support fills."""
    h = len(x)
    g0 = min(g for g in x if G.element_order(g) == h)
    assert sorted(G.cyclic_subgroup(g0)) == sorted(x)
    acc, den = chi.multiplicity_sums(g0)
    assert all(a % den == 0 for a in acc)
    out = TameElement()
    for j, mult in enumerate(a // den for a in acc):
        if mult == 0:
            continue
        factor = row_sum(*(row_scaled(x[g], zeta(h, i * j % h))
                           for i, g in enumerate(G.cyclic_subgroup(g0))))
        out = out * tame_pow(monomial(factor, h), mult)
    return out


def _det_cases(G, s, start, chars):
    """(chi, s, start, reference determinant) for each chi in chars."""
    x = resolvend(G, s, start)
    return [(vc, s, start, _det_by_character(G, x, vc)) for vc in chars]


def test_stored_eigenfactors_match_the_per_character_loop():
    for name in PRESET_NAMES:
        G = preset(name)
        T = CharTable.of(G)
        chars = []
        for t in range(T.k):
            chi = VirtualChar.irreducible(T, t)
            psi2 = chi.adams(2)
            chars += [chi, psi2, psi2 - chi - chi]
        for s, start in _ladders(G):
            for vc, _, _, ref in _det_cases(G, s, start, chars):
                assert det_resolvend(vc, s, start) == ref


def test_det_resolvend_takes_no_tame_product(monkeypatch):
    # the references first, as `_det_by_character` multiplies TameElements
    cases = []
    for name in PRESET_NAMES:
        G = preset(name)
        T = CharTable.of(G)
        chars = [vc for t in range(T.k)
                 for chi in [VirtualChar.irreducible(T, t)]
                 for vc in (chi, chi.adams(2) - chi - chi)]
        for s, start in _ladders(G):
            cases += _det_cases(G, s, start, chars)

    def refused(*args):
        raise AssertionError("det_resolvend took a TameElement product")

    monkeypatch.setattr(TameElement, "__mul__", refused)
    for vc, s, start, ref in cases:
        assert det_resolvend(vc, s, start) == ref


def test_adams_check_fails_on_a_wrong_psi2(monkeypatch):
    G = preset("F21")
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    assert verify_factorization(G, s)["pass"]
    # psi_3 in place of psi_2: 2 lies in the subgroup <2> = {1, 2, 4} of
    # (Z/7)^*, so psi_2 fixes every restriction to <s>, but 3 does not
    adams = VirtualChar.adams
    monkeypatch.setattr(VirtualChar, "adams",
                        lambda self, k: adams(self, k + 1))
    rep = verify_factorization(G, s)
    assert not rep["pass"]
    bad = [c for c in rep["checks"] if not c["adams_ratio"]]
    assert bad and not any(c["pass"] for c in bad)


# -- integer-keyed rows and monomials against Fraction exponents ---------

_coeffs = st.builds(lambda n, k, c: zeta(n, k) * c,
                    st.sampled_from([1, 3, 4, 5]), st.integers(0, 4),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4).filter(bool))
_exponents = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def _rows(draw, max_terms=4):
    """(row, m, reference): a row {a: c} of coefficients of pi^(a/m) and
    its terms as {Fraction(a, m): c}, exponents drawn over den and then
    written over m = den * k, so equal exponents arrive in different forms;
    two rows from one draw of den and k share their m."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    k = draw(st.integers(1, 3))
    rows = []
    for _ in range(2):
        nums = draw(st.lists(st.integers(-12, 12), max_size=max_terms,
                             unique=True))
        cs = [draw(_coeffs) for _ in nums]
        rows.append(({a * k: c for a, c in zip(nums, cs)},
                     {Fraction(a, den): c for a, c in zip(nums, cs)}))
    return den * k, rows


def _fraction_keys(row, m):
    return {Fraction(a, m): c for a, c in row.items()}


def _twisted(ref):
    # sigma twists pi^e by zeta_d^n for e = n/d in lowest terms
    return {e: c * zeta(e.denominator, e.numerator % e.denominator)
            for e, c in ref.items()}


@settings(max_examples=80, database=None, derandomize=True, deadline=None)
@given(_rows(), st.integers(1, 3), st.sampled_from([1, 7, 11, 13]))
def test_integer_keys_match_fraction_keys(drawn, j, q):
    m, [(x, xf), (y, yf)] = drawn
    assert _fraction_keys(x, m) == xf
    # sigma depends only on the exponent a/m, not on how it is written;
    # the twist's conductor is m, so coefficients are compared as numbers
    assert _fraction_keys(sigma_action(x, m), m) == _twisted(xf)
    xj, ref = x, xf
    for _ in range(j):
        xj, ref = sigma_action(xj, m), _twisted(ref)
    assert _fraction_keys(xj, m) == ref
    for _ in range(-j % m):
        xj = sigma_action(xj, m)
    assert xj == x
    # sigma is linear on rows over one m
    both = row_sum(x, row_scaled(y, zeta(3)))
    both_f = row_sum(xf, {e: c * zeta(3) for e, c in yf.items()})
    assert _fraction_keys(both, m) == both_f
    assert _fraction_keys(sigma_action(both, m), m) == _twisted(both_f)
    # each term read as a monomial, and its product and Frobenius image
    for (a, c), (b, d) in zip(x.items(), y.items()):
        u, v = monomial({a: c}, m), monomial({b: d}, m)
        assert (u.exponent, u.coeff) == (Fraction(a, m), c)
        uv = u * v
        assert (uv.exponent, uv.coeff) == (Fraction(a, m) + Fraction(b, m),
                                           c * d)
        frob = frobenius_action(u, q)
        assert (frob.exponent, frob.coeff) == (Fraction(a, m),
                                               c.galois_apply(q))
    if len(x) != 1:
        with pytest.raises(ValueError):
            monomial(x, m)


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(_exponents, _coeffs, _exponents, _coeffs, st.integers(-3, 3),
       st.sampled_from([1, 7, 11, 13]))
def test_monomial_inverse_and_powers_match_fraction_keys(e, c, f, d, k, q):
    x, y = TameElement(e, c), TameElement(f, d)
    assert (x.exponent, x.coeff) == (e, c)
    xy = x * y
    assert (xy.exponent, xy.coeff) == (e + f, c * d)
    inv = x.inverse()
    assert (inv.exponent, inv.coeff) == (-e, c.inverse())
    power = tame_pow(x, k)
    assert (power.exponent, power.coeff) == (k * e, c ** k)
    frob = frobenius_action(x, q)
    assert (frob.exponent, frob.coeff) == (e, c.galois_apply(q))
    assert x.to_dict() == {"terms": [[str(e), c.to_dict()]]}
    assert (x == y) == (e == f and c == d)


def _f57():
    # F57 = C19 : C3, x -> x + 1 and x -> 7x on Z/19; 7 has order 3 mod 19
    return FiniteGroup.from_generators([
        tuple((x + 1) % 19 for x in range(19)),
        tuple(7 * x % 19 for x in range(19))])


def test_f57_factorization():
    G = _f57()
    assert G.n == 57
    T = CharTable.of(G)
    # F_pq: q linear characters and (p - 1)/q of degree q
    assert T.k == 9
    assert sorted(T.degrees) == [1] * 3 + [3] * 6
    for s in range(G.n):
        assert verify_factorization(G, s)["pass"], s


def test_f57_identities_and_factorization_within_budget(cold_order_caches):
    # what the suite runs on a group: both identity verifiers and the
    # factorization on every element (all of odd order), on a fresh group
    # whose table is built outside the budget, with the per-order caches
    # empty, so that their building is timed too
    G = _f57()
    CharTable.of(G)
    start = time.perf_counter()
    for s in range(G.n):
        assert verify_induction_identities(G, s)["pass"], s
        assert verify_adams_identities(G, s)["pass"], s
        assert verify_factorization(G, s)["pass"], s
    assert time.perf_counter() - start < 2.5
