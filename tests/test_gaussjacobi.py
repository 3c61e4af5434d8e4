"""Classical Gauss and Jacobi sums with exact cyclotomic values.

Small-prime oracles below were computed by hand from the definitions
(and cross-checked through the norm identities).
"""

import random
import time
from array import array
from fractions import Fraction
from math import gcd

import pytest

from tamekit import cyclotomic, gaussjacobi
from tamekit.cyclotomic import CycNum, zeta
from tamekit.gaussjacobi import (MultChar, PRIME_CAP, _dlog, gauss_sum,
                                 j_star, jacobi_sum, tau_inverse,
                                 verify_ell_unit, verify_gauss_identities,
                                 verify_jstar)

from reference import minus


def test_mult_char_basics():
    chi = MultChar(7, 6, 2)
    assert chi.order == 3
    assert chi.reduced() == (3, 1)
    assert not chi.is_trivial
    assert MultChar(7, 6, 0).is_trivial
    with pytest.raises(ValueError):
        MultChar(7, 4, 1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        MultChar(8, 7, 1)  # not prime
    with pytest.raises(ValueError):
        MultChar(103, 2, 1)  # beyond the table cap
    with pytest.raises(ValueError, match="103 is not a prime up to 101"):
        MultChar(103, 102, 1)
    with pytest.raises(ValueError, match="9 is not a prime up to 101"):
        verify_gauss_identities(9)
    assert PRIME_CAP == 101


def test_mult_char_is_multiplicative():
    # chi(x) = zeta_d^(a dlog x), so chi is multiplicative when _dlog is a
    # homomorphism F_13^* -> Z/12; 0 has no log
    rng = random.Random(17)
    dlog = _dlog(13)
    assert dlog[0] == -1 and sorted(dlog[1:]) == list(range(12))
    for _ in range(40):
        x, y = rng.randrange(1, 13), rng.randrange(1, 13)
        assert dlog[x * y % 13] == (dlog[x] + dlog[y]) % 12


def test_mult_char_group_structure():
    a = MultChar(7, 3, 1)
    b = MultChar(7, 2, 1)
    ab = a * b
    assert ab.order == 6
    # (ab)^3 = b^3 a^3, a a^-1 = 1 and a^2 = a a, the powers as exponents
    assert MultChar(7, 6, 3 * ab.a) == \
        MultChar(7, 2, 3 * b.a) * MultChar(7, 3, 3 * a.a)
    assert (a * MultChar(7, 3, -1)).is_trivial
    assert MultChar(7, 3, 2) == a * a
    assert MultChar(7, 6, 2) == MultChar(7, 3, 1)
    assert hash(MultChar(7, 6, 2)) == hash(MultChar(7, 3, 1))


def test_mult_char_product_skips_the_modulus_check(monkeypatch):
    # both factors passed check_modulus, and lcm(d1, d2) divides p - 1
    chars = [MultChar(61, d, a) for d, a in ((4, 3), (6, 5), (15, 7), (60, 1))]

    def forbidden(p, d):
        raise AssertionError(f"check_modulus({p}, {d}) rerun")

    monkeypatch.setattr(gaussjacobi, "check_modulus", forbidden)
    for x in chars:
        for y in chars:
            xy = x * y
            assert (xy.p, xy.d) == (61, x.d * y.d // gcd(x.d, y.d))
            # the generator goes to zeta_d1^a1 zeta_d2^a2
            assert Fraction(xy.a, xy.d) == \
                (Fraction(x.a, x.d) + Fraction(y.a, y.d)) % 1
def test_quadratic_gauss_sum_small_primes():
    # p = 3: tau = zeta_3 - zeta_3^2, tau^2 = -3
    tau3 = gauss_sum(MultChar(3, 2, 1))
    assert tau3 == minus(zeta(3), zeta(3, 2))
    assert (tau3 * tau3).as_rational() == -3
    # p = 5: tau^2 = +5
    tau5 = gauss_sum(MultChar(5, 2, 1))
    assert (tau5 * tau5).as_rational() == 5


def test_trivial_gauss_sum_is_one():
    assert gauss_sum(MultChar(11, 1, 0)) == CycNum.from_rational(1)
    assert gauss_sum(MultChar(11, 10, 0)) == CycNum.from_rational(1)


def test_gauss_sum_norm_identity():
    # tau(chi) * complex-conjugate(tau(chi)) = p for nontrivial chi
    for p, d, a in [(5, 4, 1), (7, 6, 1), (7, 3, 1), (13, 4, 3)]:
        tau = gauss_sum(MultChar(p, d, a))
        assert tau * tau.galois_apply(-1) == CycNum.from_rational(p)


def test_tau_inverse():
    for p, d, a in [(5, 4, 1), (7, 3, 2), (11, 5, 1)]:
        chi = MultChar(p, d, a)
        assert gauss_sum(chi) * tau_inverse(chi) == CycNum.from_rational(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tau_inverse_of_every_character(p):
    # every character of F_p^*, the trivial one included
    for a in range(p - 1):
        chi = MultChar(p, p - 1, a)
        assert tau_inverse(chi) * gauss_sum(chi) == 1, (p, a)


def test_jacobi_sum_oracles():
    # cubic character at p = 7: J(chi, chi) = 2 + 3 zeta_3, |J|^2 = 7
    chi = MultChar(7, 3, 1)
    J = jacobi_sum(chi, chi)
    assert J == CycNum.from_rational(2) + zeta(3) * 3
    assert J * J.galois_apply(-1) == CycNum.from_rational(7)
    # quartic character at p = 5: J(chi, chi) = -1 + 2i
    chi4 = MultChar(5, 4, 1)
    J4 = jacobi_sum(chi4, chi4)
    assert J4 == CycNum.from_rational(-1) + zeta(4) * 2
    assert J4.norm() == 5


def test_jacobi_rejects_degenerate_pairs():
    triv = MultChar(7, 1, 0)
    quad = MultChar(7, 2, 1)
    with pytest.raises(ValueError):
        jacobi_sum(triv, quad)
    with pytest.raises(ValueError):
        jacobi_sum(quad, quad)  # product trivial
    with pytest.raises(ValueError, match="characters of different primes"):
        jacobi_sum(quad, MultChar(11, 2, 1))


def test_jacobi_gauss_compatibility():
    rng = random.Random(23)
    for _ in range(15):
        p = rng.choice([7, 11, 13])
        d = p - 1
        a = rng.randrange(1, d)
        b = rng.randrange(1, d)
        if (a + b) % d == 0:
            continue
        chi1, chi2 = MultChar(p, d, a), MultChar(p, d, b)
        lhs = jacobi_sum(chi1, chi2) * gauss_sum(chi1 * chi2)
        assert lhs == gauss_sum(chi1) * gauss_sum(chi2)


def test_j_star_values():
    # quadratic chi at p = 5: J* = tau(1) / tau(chi)^2 = 1/5
    quad = MultChar(5, 2, 1)
    assert j_star(quad).as_rational() == Fraction(1, 5)
    # conductor of J* is prime to p
    cubic = MultChar(7, 3, 1)
    assert j_star(cubic).n == 3
    assert j_star(cubic).norm() == Fraction(1, 7)


def test_j_star_inverse_of_jacobi():
    # for chi of order > 2, J*(chi) * J(chi, chi) = 1
    for p, d, a in [(7, 3, 1), (11, 5, 2), (13, 3, 1)]:
        chi = MultChar(p, d, a)
        assert j_star(chi) * jacobi_sum(chi, chi) == CycNum.from_rational(1)


def test_ell_unit_reports():
    assert verify_ell_unit(CycNum.from_rational(Fraction(1, 25)), 5)["pass"]
    assert verify_ell_unit(CycNum.from_rational(125), 5)["pass"]
    assert not verify_ell_unit(CycNum.from_rational(6), 5)["pass"]


def test_identity_sweep_reports():
    # p = 2 and p = 3 have no Jacobi pair (and p = 2 no tau check).
    for p, pairs in [(2, 0), (3, 0), (5, 6), (7, 20)]:
        rep = verify_gauss_identities(p)
        assert rep["pass"]
        assert rep["jacobi_pairs"] == pairs and not rep["jacobi_failures"]
        assert len(rep["tau_checks"]) == p - 2
        assert all(t["pass"] for t in rep["tau_checks"])


def test_identity_sweep_fails_without_a_homomorphic_dlog(monkeypatch):
    # Swapping the logs of 2 and 3 keeps a bijection F_7^* -> Z/6 but breaks
    # L(xy) = L(x) + L(y), so the "characters" are not multiplicative.
    fake = list(gaussjacobi._dlog(7))
    fake[2], fake[3] = fake[3], fake[2]
    monkeypatch.setattr(gaussjacobi, "_dlog", lambda p: tuple(fake))
    rep = verify_gauss_identities(7)
    assert not rep["pass"]
    assert rep["jacobi_failures"]
    assert rep["jacobi_failures"] == sorted(rep["jacobi_failures"])


def test_jstar_sweep_norms():
    rep = verify_jstar(7, 3)
    assert rep["pass"]
    assert [c["norm"] for c in rep["checks"]] == ["1/7", "1/7"]
    rep = verify_jstar(11, 5)
    assert rep["pass"]
    assert [c["norm"] for c in rep["checks"]] == ["1/121"] * 4
    rep = verify_jstar(7)
    assert rep["pass"]
    assert [c["norm"] for c in rep["checks"]] == \
        ["1/7", "1/7", "-1/7", "1/7", "1/7"]
    rep = verify_jstar(43)
    assert rep["pass"]
    assert len(rep["checks"]) == 41
    assert all(42 % c["conductor"] == 0 for c in rep["checks"])


def test_identity_sweep_reduces_once_per_character(monkeypatch):
    # The identities are zero tests, not canonical forms: the only
    # reductions modulo Phi_930 left are the 29 nontrivial Gauss sums.
    calls = []
    real = cyclotomic._reduce_packed

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(cyclotomic, "_reduce_packed", counting)
    assert verify_gauss_identities(31)["pass"]
    assert calls.count(930) <= 30


def test_identity_sweep_names_a_corrupted_jacobi_sum(monkeypatch):
    real = gaussjacobi.jacobi_sum

    def corrupted(chi1, chi2):
        J = real(chi1, chi2)
        return J + 1 if (chi1.a, chi2.a) == (3, 5) else J

    monkeypatch.setattr(gaussjacobi, "jacobi_sum", corrupted)
    rep = verify_gauss_identities(31)
    assert rep["jacobi_failures"] == [[3, 5]]
    assert all(t["pass"] for t in rep["tau_checks"])
    assert not rep["pass"]


def test_identity_sweep_names_a_corrupted_gauss_sum(monkeypatch):
    # tau_c enters the pairs with a + b = c on the Jacobi side and those
    # with a or b = c on the product side; tau checks a = c and a = -c.
    p, c = 31, 5
    d = p - 1
    real = gaussjacobi.gauss_sum
    monkeypatch.setattr(
        gaussjacobi, "gauss_sum",
        lambda chi: real(chi) + 1 if (chi.d, chi.a) == (d, c) else real(chi))
    rep = verify_gauss_identities(p)
    want = [[a, b] for a in range(1, d) for b in range(1, d)
            if (a + b) % d and c in (a, b, (a + b) % d)]
    assert rep["jacobi_failures"] == want
    assert [t["a"] for t in rep["tau_checks"] if not t["pass"]] == [c, d - c]


def test_p61_sweep_within_budget():
    # 3,422 Jacobi pairs and 59 tau checks at conductor 3,660; 0.54 to
    # 0.71 s on a 2-core x86-64 VM with CPython 3.11 at 2-byte slots with
    # the binomial annihilator, 1.0 to 2.1 s at 3-byte slots with Psi_N,
    # 8.9 s before the zero test.
    start = time.perf_counter()
    rep = verify_gauss_identities(61)
    elapsed = time.perf_counter() - start
    assert rep["pass"] and rep["jacobi_pairs"] == 3422
    assert elapsed < 2.5, elapsed


class _Made(Exception):
    pass


def _sweep_zero_test(p, monkeypatch):
    """The `_ZeroTest` that verify_gauss_identities(p) makes, with its
    bound; the sweep stops there."""
    made = []

    class Recorded(cyclotomic._ZeroTest):
        def __init__(self, n, bound):
            super().__init__(n, bound)
            self.bound = bound
            made.append(self)
            raise _Made

    monkeypatch.setattr(gaussjacobi, "_ZeroTest", Recorded)
    with pytest.raises(_Made):
        verify_gauss_identities(p)
    return made[0]


@pytest.mark.parametrize("p", [31, 61, 101])
def test_sweep_packs_at_two_bytes(p, monkeypatch):
    # (p - 1)(2 p - 3) + p < 2^16 - 1, and it needs more than one byte.
    test = _sweep_zero_test(p, monkeypatch)
    assert test.n == p * (p - 1)
    assert test.kb == 2


def _definition_terms(p, x, y):
    """Exponents at conductor N = p(p - 1) of the terms of tau(chi_x) (y
    None) or of J(chi_x, chi_y), read off the definitions: p - 1 and p - 2
    roots of unity, zeta_p = Z^(p-1) and zeta_(p-1) = Z^p."""
    d, dlog = p - 1, _dlog(p)
    if y is None:
        return [(t * d - p * x * dlog[t]) % (p * d) for t in range(1, p)]
    return [-p * (x * dlog[t] + y * dlog[(1 - t) % p]) % (p * d)
            for t in range(2, p)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                               61])
def test_sweep_bound_covers_every_folded_slot(p, monkeypatch):
    # Every D of the sweep, as the representative its definitions give:
    # J tau_c - tau_a tau_b, or tau_a tau_-a -+ p, with tau p - 1 unit
    # terms at distinct exponents and J p - 2, folded mod x^N - 1 in exact
    # integers.  Its l1 norm bounds |sigma(D)| in every embedding sigma
    # and every slot, and the sweep's bound covers it, with B - 1 > bound
    # for its slots.  Each folded coefficient of a product counts terms of
    # J or of a tau, so |D_i| <= 2 p - 1 < 2^7: signed bytes read D exactly.
    # (47, 53 and 59 pass too, in 5 s against 4 s for the others together.)
    test = _sweep_zero_test(p, monkeypatch)
    assert (1 << 8 * test.kb) - 1 > test.bound
    d = p - 1
    N = p * d
    assert 2 * p - 1 < 2 ** 7
    width = 8 * N
    M = (1 << width) - 1
    bias = cyclotomic._bias(N, 1)

    def packed(terms):  # counts below 2^8, so plain bytes
        return int.from_bytes(
            bytes(cyclotomic._folded(N, ((e, 1) for e in terms))), "little")

    def l1(v):
        while v >> width:  # v mod M, in 0..M
            v = (v & M) + (v >> width)
        if v > M // 2:
            v -= M
        return sum(map(abs, array("b", ((v + bias) ^ bias).to_bytes(
            N, "little"))))

    taus = [None] + [packed(_definition_terms(p, a, None))
                     for a in range(1, d)]
    widest = 0
    for a in range(1, d):
        for b in range(a, d):
            product = taus[a] * taus[b]
            c = (a + b) % d
            if not c:
                ds = [product - (-1 if a % 2 else 1) * p]
            else:
                ds = [packed(_definition_terms(p, x, y)) * taus[c] - product
                      for x, y in {(a, b), (b, a)}]
            widest = max(widest, *map(l1, ds))
    assert widest <= test.bound, (widest, test.bound)
