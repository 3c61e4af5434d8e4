"""Lambda-adic embedding and exact valuations.

The valuation is normalized on lambda = zeta_p - 1, so v(p) = p - 1.
"""

import random

import pytest
from fractions import Fraction

from tamekit.cyclotomic import CycNum, zeta
from tamekit.gaussjacobi import MultChar, _dlog, gauss_sum
from tamekit.padic import embed_cyclotomic, lambda_valuation

from reference import minus


def _same_image(x: dict, y: dict, p: int, K: int = 4) -> bool:
    """Two images {u: s_u} agree in (Z/p^K)[zeta_p]: their difference on
    the basis zeta_p^u, u < p, is a multiple of sum_u zeta_p^u = 0."""
    d = [(x.get(u, 0) - y.get(u, 0)) % p ** K for u in range(p)]
    return len(set(d)) == 1


def _times(x: dict, y: dict, p: int, K: int = 4) -> dict:
    """The product of two images, wrapped modulo zeta_p^p = 1."""
    out: dict[int, int] = {}
    for u, s in x.items():
        for w, t in y.items():
            out[(u + w) % p] = (out.get((u + w) % p, 0) + s * t) % p ** K
    return out


def test_valuation_is_additive_on_products():
    rng = random.Random(5)
    one = CycNum.from_rational(1)
    for p in (3, 5, 7, 11):
        assert lambda_valuation(CycNum.from_rational(p), p) == p - 1
        assert lambda_valuation(one + one, p) == 0
        N = p * (p - 1)
        for _ in range(10):
            x, y = (CycNum(N, {rng.randrange(N): rng.randint(-5, 5)
                               for _ in range(4)})
                    * minus(one, zeta(p)) ** rng.randint(0, p) for _ in "xy")
            if x and y:
                assert (lambda_valuation(x * y, p)
                        == lambda_valuation(x, p) + lambda_valuation(y, p))
    assert lambda_valuation(CycNum.from_rational(25), 5) == 8
    assert lambda_valuation(CycNum.from_rational(12), 2) == 2


def test_teichmueller_character():
    # zeta_{p-1} maps to a (p-1)-th root of unity congruent to the
    # smallest primitive root g, in the degree-0 coordinate
    for p, g in ((5, 2), (7, 3)):
        (u, T), = embed_cyclotomic(zeta(p - 1), p).items()
        assert u == 0 and T % p == g and pow(T, p - 1, p ** 4) == 1
        for j in range(p - 1):
            assert _same_image(embed_cyclotomic(zeta(p - 1, j), p),
                               {0: pow(T, j, p ** 4)}, p)


@pytest.mark.parametrize("p", [5, 7, 11, 31])
def test_embedding_root_matches_dlog(p):
    # zeta_{p-1} - h is divisible by lambda exactly when h is the root
    # that _dlog takes as the generator, and then exactly once by p
    g = _dlog(p).index(1)
    for h in range(p):
        want = p - 1 if h == g else 0
        assert lambda_valuation(minus(zeta(p - 1), h), p) == want, h


def test_lambda_valuation_oracles():
    one = CycNum.from_rational(1)
    for p in (3, 5, 7):
        assert lambda_valuation(CycNum.from_rational(p), p) == p - 1
        assert lambda_valuation(one, p) == 0
        lam = minus(one, zeta(p))
        assert lambda_valuation(lam, p) == 1
        assert lambda_valuation(lam ** 3, p) == 3
        assert lambda_valuation(lam * p, p) == p
    assert lambda_valuation(CycNum.from_rational(3 ** 20), 3) == 40


def test_lambda_valuation_of_units():
    # roots of unity prime to p are units
    assert lambda_valuation(zeta(4), 5) == 0
    assert lambda_valuation(zeta(6), 7) == 0


def test_gauss_sum_valuations_permute_digits():
    # Stickelberger: the character sending the smallest primitive root to
    # zeta_{p-1}^a has v(tau) = a, for each a in 1..p-2
    for p in (5, 7, 11, 13, 31, 43, 61, 101):
        for a in range(1, p - 1):
            tau = gauss_sum(MultChar(p, p - 1, a))
            assert lambda_valuation(tau, p) == a, (p, a)
    for p in (5, 7, 11):
        quad = MultChar(p, 2, 1)
        assert lambda_valuation(gauss_sum(quad), p) == (p - 1) // 2


def test_precision_policy():
    # the first precision, 3^4, is too coarse for either: every coordinate
    # vanishes, and K doubles until the valuation shows
    big = CycNum.from_rational(3 ** 70)
    assert embed_cyclotomic(big, 3) == {}
    assert embed_cyclotomic(big, 3, K=128) == {0: 3 ** 70}
    assert lambda_valuation(big, 3) == 140
    assert lambda_valuation(CycNum.from_rational(3 ** 200), 3) == 400


def test_conductor_must_divide():
    with pytest.raises(ValueError):
        lambda_valuation(zeta(9), 3)
    with pytest.raises(ValueError):
        lambda_valuation(CycNum.from_rational(0), 5)
    with pytest.raises(ValueError, match="4 is not prime"):
        lambda_valuation(CycNum.from_rational(2), 4)


def test_embed_is_ring_map():
    p = 5
    x = zeta(5) + zeta(4)
    y = zeta(20, 3) * 2
    ex, ey = embed_cyclotomic(x, p), embed_cyclotomic(y, p)
    assert _same_image(embed_cyclotomic(x * y, p), _times(ex, ey, p), p)
    plus = {u: ex.get(u, 0) + ey.get(u, 0) for u in range(p)}
    assert _same_image(embed_cyclotomic(x + y, p), plus, p)
    assert not _same_image(ex, ey, p)


def test_embed_requires_p_integral_coefficients():
    with pytest.raises(ValueError, match="not p-integral"):
        embed_cyclotomic(zeta(7) * Fraction(1, 7), 7)
    with pytest.raises(ValueError, match="not p-integral"):
        lambda_valuation(zeta(7) * Fraction(1, 7), 7)
    # 1/2 is a 7-adic unit: halving changes the embedding, not the valuation
    lam2 = minus(CycNum.from_rational(1), zeta(7)) ** 2
    half = lam2 * Fraction(1, 2)
    assert lambda_valuation(half, 7) == 2
    assert _same_image(_times(embed_cyclotomic(half, 7), {0: 2}, 7),
                       embed_cyclotomic(lam2, 7), 7)
    mixed = zeta(42, 5) * Fraction(1, 2) + zeta(42, 8) * Fraction(1, 3)
    assert _same_image(_times(embed_cyclotomic(mixed, 7), {0: 6}, 7),
                       embed_cyclotomic(zeta(42, 5) * 3 + zeta(42, 8) * 2, 7),
                       7)
