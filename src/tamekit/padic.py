"""Exact lambda-adic valuations of cyclotomic integers, lambda = zeta_p - 1.

A cyclotomic number of conductor dividing p(p-1) maps into
(Z/p^K)[zeta_p] as sum_u s_u zeta_p^u, u < p.  Writing zeta_p = 1 + lambda
and zeta_p^(p-1) = -sum_{u<p-1} zeta_p^u, the hockey-stick identity
sum_{u<p-1} C(u, i) = C(p-1, i+1) gives the coordinates on the basis
lambda^i, i < p - 1:

    b_i = sum_{u<p-1} s_u C(u, i) - s_{p-1} C(p-1, i+1)  mod p^K.

The term valuations v(b_i lambda^i) = (p-1) v_p(b_i) + i are pairwise
distinct mod p - 1, so the valuation is their minimum.  A coordinate that
is nonzero mod p^K has valuation at most (p-1) K - 1 and one that vanishes
has at least (p-1) K, so the minimum over the nonzero ones is exact.
"""

from __future__ import annotations

from math import comb

from .arith import primitive_root
from .cyclotomic import CycNum


def embed_cyclotomic(a: CycNum, p: int, K: int = 4) -> dict[int, int]:
    """The image {u: s_u} of a in (Z/p^K)[zeta_p], zero terms dropped.

    The embedding is fixed by zeta_p -> zeta_p and zeta_{p-1} -> the
    Teichmueller lift of the smallest primitive root mod p; all smaller
    conductors are embedded compatibly through zeta_n = zeta_N^{N/n} with
    N = p(p-1).  Rational coefficients must be p-integral.
    """
    T = primitive_root(p)  # ValueError unless p is prime
    N = p * (p - 1)
    n = a.n
    if N % n:
        raise ValueError(f"conductor {n} does not divide {N} = p(p-1)")
    # den is coprime to the numerators, so p | den iff some coefficient
    # has p in its denominator.
    if a.den % p == 0:
        raise ValueError("coefficient is not p-integral")
    mod = p ** K
    # the Teichmueller lift: g^(p^j) agrees with it mod p^(j+1)
    for _ in range(K):
        T = pow(T, p, mod)
    k = N // n
    sums: dict[int, int] = {}
    for e, c in enumerate(a.num):
        if c:
            E = e * k % N
            u = -E % p
            sums[u] = sums.get(u, 0) + c * pow(T, E % (p - 1), mod)
    scale = pow(a.den, -1, mod)
    return {u: r for u, s in sums.items() if (r := s * scale % mod)}


def lambda_valuation(a: CycNum, p: int) -> int:
    """Exact lambda-adic valuation of a nonzero cyclotomic integer whose
    conductor divides p(p-1), normalized so that v(p) = p - 1.

    Starts at K = 4 and doubles K while every coordinate vanishes mod p^K.
    The loop ends: the embedding is injective, so a nonzero a has a finite
    valuation v, and v is visible once (p-1) K exceeds it.
    """
    if not a:
        raise ValueError("zero has no valuation")
    K = 4
    while True:
        image = embed_cyclotomic(a, p, K)
        mod = p ** K
        top = image.pop(p - 1, 0)
        best = (p - 1) * K  # above every valuation visible mod p^K
        for i in range(p - 1):
            if i >= best:  # the terms left have valuation >= i
                break
            b = (sum(s * comb(u, i) for u, s in image.items())
                 - top * comb(p - 1, i + 1)) % mod
            if b:
                w = 0
                while b % p == 0:
                    b //= p
                    w += 1
                best = min(best, (p - 1) * w + i)
        if best < (p - 1) * K:
            return best
        K *= 2
