"""Classical Gauss and Jacobi sums with exact cyclotomic values.

Small-prime oracles below were computed by hand from the definitions
(and cross-checked through the norm identities).
"""

import random
from fractions import Fraction

import pytest

from tamekit import gaussjacobi
from tamekit.cyclotomic import CycNum, zeta
from tamekit.gaussjacobi import (MultChar, PRIME_CAP, gauss_sum, j_star,
                                 jacobi_sum, tau_inverse, verify_ell_unit,
                                 verify_gauss_identities, verify_jstar)


def test_mult_char_basics():
    chi = MultChar(7, 6, 2)
    assert chi.order == 3
    assert chi.reduced() == (3, 1)
    assert not chi.is_trivial
    assert MultChar(7, 6, 0).is_trivial
    with pytest.raises(ValueError):
        chi.value(0)
    with pytest.raises(ValueError):
        MultChar(7, 4, 1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        MultChar(8, 7, 1)  # not prime
    with pytest.raises(ValueError):
        MultChar(103, 2, 1)  # beyond the table cap
    assert PRIME_CAP == 101


def test_mult_char_is_multiplicative():
    rng = random.Random(17)
    chi = MultChar(13, 12, 5)
    for _ in range(40):
        x, y = rng.randrange(1, 13), rng.randrange(1, 13)
        assert chi.value(x * y % 13) == chi.value(x) * chi.value(y)


def test_mult_char_group_structure():
    a = MultChar(7, 3, 1)
    b = MultChar(7, 2, 1)
    ab = a * b
    assert ab.order == 6
    assert ab.power(3) == b.power(3) * a.power(3)
    assert (a * a.inverse()).is_trivial
    assert a.power(2) == a * a
    assert MultChar(7, 6, 2) == MultChar(7, 3, 1)
    assert hash(MultChar(7, 6, 2)) == hash(MultChar(7, 3, 1))


def test_quadratic_gauss_sum_small_primes():
    # p = 3: tau = zeta_3 - zeta_3^2, tau^2 = -3
    tau3 = gauss_sum(MultChar(3, 2, 1))
    assert tau3 == zeta(3) - zeta(3, 2)
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
    assert j_star(cubic).conductor == 3
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
    for p, pairs in [(3, 0), (5, 6), (7, 20)]:
        rep = verify_gauss_identities(p)
        assert rep["pass"]
        assert rep["jacobi_pairs"] == pairs
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
