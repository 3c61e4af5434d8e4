"""Lambda-adic approximation and exact valuations.

The valuation is normalized on lambda = zeta_p - 1, so v(p) = p - 1.
"""

import pytest
from fractions import Fraction

from tamekit.cyclotomic import CycNum, zeta
from tamekit.gaussjacobi import MultChar, gauss_sum
from tamekit.padic import (PadicApprox, PrecisionExhausted, embed_cyclotomic,
                           lambda_valuation, teichmueller)


def test_approx_basics():
    one = PadicApprox.one(5, 8)
    assert one != PadicApprox.zero(5, 8) and one.valuation() == 0
    assert not any(PadicApprox.zero(5, 8).coeffs)
    # equality holds at the smaller precision: 57 = 50 mod 7, not mod 49
    assert PadicApprox.from_int(7, 6, 50) == PadicApprox.from_int(7, 12, 57)
    assert PadicApprox.from_int(7, 12, 50) != PadicApprox.from_int(7, 12, 57)
    assert PadicApprox.from_int(7, 6, 50) != PadicApprox.from_int(5, 6, 50)
    p_elt = PadicApprox.from_int(5, 8, 5)
    assert p_elt.valuation() == 4
    assert Fraction(p_elt.valuation(), 5 - 1) == 1
    assert (one + one).valuation() == 0
    sq = PadicApprox.from_int(5, 16, 25)
    assert sq.valuation() == 8


def test_teichmueller_character():
    for p in (5, 7):
        for a in range(1, p):
            w = teichmueller(p, a, 4 * (p - 1))
            assert w ** (p - 1) == PadicApprox.one(p, 4 * (p - 1))
            # congruent to a mod lambda (exact for a = 1)
            off = w - PadicApprox.from_int(p, 4 * (p - 1), a)
            assert not any(off.coeffs) or off.valuation() >= 1


def test_lambda_valuation_oracles():
    one = CycNum.from_rational(1)
    for p in (3, 5, 7):
        assert lambda_valuation(CycNum.from_rational(p), p) == p - 1
        assert lambda_valuation(one, p) == 0
        lam = one - zeta(p)
        assert lambda_valuation(lam, p) == 1
        assert lambda_valuation(lam ** 3, p) == 3
        assert lambda_valuation(lam * p, p) == p
    assert lambda_valuation(CycNum.from_rational(3 ** 20), 3) == 40


def test_lambda_valuation_of_units():
    # roots of unity prime to p are units
    assert lambda_valuation(zeta(4), 5) == 0
    assert lambda_valuation(zeta(6), 7) == 0


def test_gauss_sum_valuations_permute_digits():
    # the p-1 sums have distinct valuations 0..p-2 (0 from the trivial sum)
    for p in (5, 7, 11):
        vals = sorted(lambda_valuation(gauss_sum(MultChar(p, p - 1, a)), p)
                      for a in range(1, p - 1))
        assert vals == list(range(1, p - 1))
        quad = MultChar(p, 2, 1)
        assert lambda_valuation(gauss_sum(quad), p) == (p - 1) // 2


def test_precision_policy():
    # the first precision, 4(p - 1) = 8, is too coarse for either; the
    # doubling goes on until the valuation shows
    big = CycNum.from_rational(3 ** 70)
    with pytest.raises(PrecisionExhausted):
        embed_cyclotomic(big, 3).valuation()
    assert lambda_valuation(big, 3) == 140
    assert lambda_valuation(CycNum.from_rational(3 ** 200), 3) == 400


def test_conductor_must_divide():
    with pytest.raises(ValueError):
        lambda_valuation(zeta(9), 3)
    with pytest.raises(ValueError):
        lambda_valuation(CycNum.from_rational(0), 5)
    with pytest.raises(ValueError, match="not a prime"):
        lambda_valuation(CycNum.from_rational(2), 4)


def test_embed_is_ring_map():
    p, M = 5, 16
    x = zeta(5) + zeta(4)
    y = zeta(20, 3) * 2
    ex, ey = embed_cyclotomic(x, p, M), embed_cyclotomic(y, p, M)
    assert embed_cyclotomic(x * y, p, M) == ex * ey
    assert embed_cyclotomic(x + y, p, M) == ex + ey


def test_embed_requires_p_integral_coefficients():
    with pytest.raises(ValueError):
        embed_cyclotomic(zeta(7) * Fraction(1, 7), 7)
    # 1/2 is a 7-adic unit: halving changes the embedding, not the valuation
    lam2 = (CycNum.from_rational(1) - zeta(7)) ** 2
    half = lam2 * Fraction(1, 2)
    assert lambda_valuation(half, 7) == 2
    assert embed_cyclotomic(half, 7) * 2 == embed_cyclotomic(lam2, 7)
    mixed = zeta(42, 5) * Fraction(1, 2) + zeta(42, 8) * Fraction(1, 3)
    assert (embed_cyclotomic(mixed, 7) * 6
            == embed_cyclotomic(zeta(42, 5) * 3 + zeta(42, 8) * 2, 7))
