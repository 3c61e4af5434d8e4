"""Formal tame local model: monomial algebra, semigroup actions,
resolvends, and the equivariant determinant."""

import random
from fractions import Fraction

import pytest

from tamekit.arith import smallest_prime_in_class
from tamekit.characters import CharTable, VirtualChar
from tamekit.cyclotomic import CycNum, zeta
from tamekit.groups import preset
from tamekit.localmodel import (GroupAlgebraElement, TameCocycle,
                                TameElement, beta, beta_star, det_resolvend,
                                frobenius_action, infer_q, phi_resolvend,
                                phi_star_resolvend, sigma_action,
                                verify_factorization,
                                verify_kummer_generator)
from tamekit.stickelberger import pairing, star_pairing


def test_monomial_algebra():
    a = TameElement.monomial(Fraction(1, 3))
    b = TameElement.monomial(Fraction(1, 2), zeta(4))
    ab = a * b
    assert ab.monomial_parts() == (Fraction(5, 6), zeta(4))
    assert (a ** 3).monomial_parts() == (Fraction(1), CycNum.from_rational(1))
    assert a ** -2 == a.inverse() * a.inverse()
    assert a.valuation() == Fraction(1, 3)
    assert (a + b).valuation() == Fraction(1, 3)
    assert (a + b).monomial_parts() is None


def test_zero_one_and_scalars():
    one = TameElement.one()
    zero = TameElement.zero()
    a = TameElement.monomial(Fraction(2, 5))
    assert a * one == a and a + zero == a
    assert not zero and bool(a)
    assert one == 1 and zero == 0
    assert a * 2 - a == a
    assert TameElement.monomial(0, Fraction(3, 4)) == Fraction(3, 4)


def test_inverse_requires_monomial():
    a = TameElement.one() + TameElement.monomial(Fraction(1, 3))
    with pytest.raises(ValueError):
        a.inverse()
    with pytest.raises(ZeroDivisionError):
        TameElement.zero().inverse()


def test_dict_round_trip():
    x = TameElement.monomial(Fraction(-1, 3), zeta(3)) + \
        TameElement.monomial(Fraction(2, 7), CycNum.from_rational(5))
    assert TameElement.from_dict(x.to_dict()) == x


def test_sigma_twists_by_root_of_unity():
    x = TameElement.monomial(Fraction(1, 3))
    assert sigma_action(x) == TameElement.monomial(Fraction(1, 3), zeta(3))
    # integer powers are fixed
    y = TameElement.monomial(Fraction(2))
    assert sigma_action(y) == y
    # the twist depends only on the reduced fraction
    z = TameElement.monomial(Fraction(2, 6))
    assert sigma_action(z) == TameElement.monomial(Fraction(1, 3), zeta(3))


def test_sigma_has_finite_order():
    x = TameElement.monomial(Fraction(3, 7), zeta(5)) + \
        TameElement.monomial(Fraction(-1, 7))
    y = x
    for _ in range(7):
        y = sigma_action(y)
    assert y == x


def test_frobenius_acts_on_coefficients():
    x = TameElement.monomial(Fraction(1, 3), zeta(5))
    assert frobenius_action(x, 7) == TameElement.monomial(Fraction(1, 3),
                                                          zeta(5, 2))


def test_frobenius_sigma_commutation():
    # phi o sigma = sigma^q o phi on the monomial model
    rng = random.Random(13)
    for _ in range(30):
        m = rng.choice([3, 5, 7, 9])
        q = rng.choice([2, 11, 13])
        if q % m == 0:
            continue
        x = TameElement.zero()
        for _ in range(rng.randrange(1, 4)):
            x = x + TameElement.monomial(
                Fraction(rng.randrange(-6, 7), m),
                zeta(m, rng.randrange(m)) * rng.randrange(1, 3))
        lhs = frobenius_action(sigma_action(x), q)
        rhs = frobenius_action(x, q)
        for _ in range(q):
            rhs = sigma_action(rhs)
        assert lhs == rhs


def test_beta_elements():
    b = beta(3)
    third = Fraction(1, 3)
    assert b == (TameElement.monomial(0) + TameElement.monomial(third)
                 + TameElement.monomial(2 * third)) * third
    bs = beta_star(3)
    assert bs == (TameElement.monomial(-third) + TameElement.monomial(0)
                  + TameElement.monomial(third)) * third
    with pytest.raises(ValueError):
        beta_star(4)


def test_group_algebra_arithmetic():
    G = preset("S3")
    e = GroupAlgebraElement.identity(G)
    s = G.names.index("(1 2 3)")
    x = e.right_mul(s)
    assert x.support() == [G.inverse(s)] or x.support() == [s]
    # right translation composes
    assert x.right_mul(s).right_mul(s) == x.right_mul(0).right_mul(
        G.power(s, 2))
    assert (e + e) * x == x * 2


def test_resolvend_equivariance():
    for name in ("C3", "C5", "S3", "F21"):
        G = preset(name)
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            r = phi_resolvend(G, s)
            assert r.sigma() == r.right_mul(s)
            rs = phi_star_resolvend(G, s)
            assert rs.sigma() == rs.right_mul(s)


def test_cocycle_validation():
    G = preset("F21")
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    t = next(g for g in range(G.n) if G.element_order(g) == 3)
    k = next(k for k in range(1, 7) if G.conjugate(t, s) == G.power(s, k))
    q = smallest_prime_in_class(k, 7)
    TameCocycle(G, s, t, q)
    with pytest.raises(ValueError):
        TameCocycle(G, s, t, smallest_prime_in_class(k + 1, 7))
    with pytest.raises(ValueError, match="prime power"):
        TameCocycle(G, s, t, 6)
    with pytest.raises(ValueError, match="wild"):
        TameCocycle(G, s, t, 7)


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
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            r = phi_resolvend(G, s)
            rs = phi_star_resolvend(G, s)
            for t in range(T.k):
                chi = VirtualChar.irreducible(T, t)
                assert det_resolvend(r, chi) == \
                    TameElement.monomial(pairing(chi, s))
                assert det_resolvend(rs, chi) == \
                    TameElement.monomial(star_pairing(chi, s))


def test_det_is_multiplicative_on_commuting_resolvends():
    G = preset("C7")
    T = CharTable.of(G)
    r = phi_resolvend(G, 1)
    rs = phi_star_resolvend(G, 1)
    prod = r * rs
    for t in range(T.k):
        chi = VirtualChar.irreducible(T, t)
        assert det_resolvend(prod, chi) == \
            det_resolvend(r, chi) * det_resolvend(rs, chi)


def test_kummer_generator_reports():
    for e in (1, 3, 5):
        for n in (0, (1 - e) // 2):
            rep = verify_kummer_generator(e, n)
            assert rep["pass"], (e, n)
    # even orders are admitted too
    assert verify_kummer_generator(4, 0)["pass"]
    with pytest.raises(ValueError):
        verify_kummer_generator(3, 3)


def test_factorization_reports():
    for name in ("C3", "S3"):
        G = preset(name)
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            rep = verify_factorization(G, s, label=name)
            assert rep["pass"], (name, s)
    with pytest.raises(ValueError):
        verify_factorization(preset("S3"), preset("S3").names.index("(1 2)"))
