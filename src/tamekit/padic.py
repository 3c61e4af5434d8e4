"""Truncated exact arithmetic in Z_p[zeta_p] = Z_p[lambda], lambda = zeta_p - 1.

An element is written x = sum_{i=0}^{p-2} a_i lambda^i.  The term valuations
satisfy v_lambda(a_i lambda^i) = (p-1) v_p(a_i) + i, which are pairwise
distinct mod p-1, so

- x is determined mod lambda^M exactly by a_i mod p^{K_i} with
  K_i = ceil((M - i) / (p - 1)),
- two truncations are equal iff all residues agree, and
- the lambda-valuation of a nonzero truncation is min_i ((p-1) v_p(a_i) + i),
  achieved by a unique term, and any nonzero residue certifies a valuation
  strictly below M.

All coefficient arithmetic is plain integer arithmetic; products are reduced
against the Eisenstein minimal polynomial E(x) = Phi_p(1 + x), whose
coefficients are the binomials C(p, k+1).  (1 + x)^p - 1 = x E(x), so
(1 + lambda)^p reduces to exactly 1 and root-of-unity bookkeeping stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import primitive_root
from .cyclotomic import CycNum


class PrecisionExhausted(Exception):
    """The requested quantity is not visible at the working precision."""


@lru_cache(maxsize=None)
def _eisenstein(p: int) -> tuple[int, ...]:
    return tuple(math.comb(p, k + 1) for k in range(p))


def _K(p: int, M: int, i: int) -> int:
    return max(0, -((M - i) // -(p - 1)))


def _reduce_mod_E(p: int, poly: list[int]) -> list[int]:
    E = _eisenstein(p)
    m = p - 1
    if len(poly) < m:
        poly = poly + [0] * (m - len(poly))
    for i in range(len(poly) - 1, m - 1, -1):
        c = poly[i]
        if c:
            poly[i] = 0
            base = i - m
            for k in range(m):
                poly[base + k] -= c * E[k]
    return poly[:m]


class PadicApprox:
    """An element of Z_p[lambda] known modulo lambda^M."""

    __slots__ = ("p", "M", "coeffs")
    __hash__ = None

    def __init__(self, p: int, M: int, coeffs):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        if M < 1:
            raise ValueError("precision must be positive")
        self.p = p
        self.M = M
        vec = list(coeffs)
        if len(vec) > p - 1:
            vec = _reduce_mod_E(p, vec)
        vec += [0] * ((p - 1) - len(vec))
        self.coeffs = tuple(c % (p ** _K(p, M, i)) if _K(p, M, i) else 0
                            for i, c in enumerate(vec))

    @classmethod
    def from_int(cls, p: int, M: int, value: int) -> "PadicApprox":
        return cls(p, M, [value])

    @classmethod
    def zero(cls, p: int, M: int) -> "PadicApprox":
        return cls(p, M, [])

    @classmethod
    def one(cls, p: int, M: int) -> "PadicApprox":
        return cls(p, M, [1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, M: int) -> "PadicApprox":
        if M > self.M:
            raise ValueError("cannot raise precision by truncation")
        return PadicApprox(self.p, M, self.coeffs)

    def _check(self, other: "PadicApprox") -> int:
        if not isinstance(other, PadicApprox):
            raise TypeError("expected a PadicApprox")
        if other.p != self.p:
            raise ValueError("mixed primes")
        return min(self.M, other.M)

    def __add__(self, other):
        M = self._check(other)
        return PadicApprox(self.p, M, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        M = self._check(other)
        return PadicApprox(self.p, M, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return PadicApprox(self.p, self.M, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicApprox(self.p, self.M, [a * other for a in self.coeffs])
        M = self._check(other)
        prod = [0] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        prod[i + j] += x * y
        return PadicApprox(self.p, M, _reduce_mod_E(self.p, prod))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = PadicApprox.one(self.p, self.M)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, PadicApprox):
            return NotImplemented
        if self.p != other.p:
            return False
        M = min(self.M, other.M)
        return self.truncate(M).coeffs == other.truncate(M).coeffs

    def valuation(self) -> int:
        """Exact lambda-adic valuation; PrecisionExhausted when the element
        is indistinguishable from zero at this precision."""
        p = self.p
        best = None
        for i, a in enumerate(self.coeffs):
            if a:
                w = 0
                while a % p == 0:
                    a //= p
                    w += 1
                v = (p - 1) * w + i
                if best is None or v < best:
                    best = v
        if best is None:
            raise PrecisionExhausted(
                f"element vanishes mod lambda^{self.M}; valuation not visible")
        return best

    def p_valuation(self) -> Fraction:
        return Fraction(self.valuation(), self.p - 1)

    def __repr__(self):
        terms = [f"{a}*L^{i}" for i, a in enumerate(self.coeffs) if a]
        body = " + ".join(terms) if terms else "0"
        return f"PadicApprox(p={self.p}, mod L^{self.M}; {body})"


def teichmueller(p: int, a: int, M: int) -> PadicApprox:
    """The Teichmueller representative of a mod p: the unique (p-1)-th root
    of unity in Z_p congruent to a, truncated mod lambda^M."""
    K = _K(p, M, 0)
    mod = p ** K
    t = a % mod
    for _ in range(K + 1):
        nt = pow(t, p, mod)
        if nt == t:
            break
        t = nt
    return PadicApprox.from_int(p, M, t)


@lru_cache(maxsize=None)
def _root_powers(p: int, M: int):
    """Cached powers ((1+lambda)^j for j < p, T^j mod p^K_0 for j < p-1)
    where T is the Teichmueller lift of the fixed primitive root mod p."""
    one = PadicApprox.one(p, M)
    lam = PadicApprox(p, M, [0, 1])
    zp = one + lam
    pow1 = [one]
    for _ in range(p - 1):
        pow1.append(pow1[-1] * zp)
    mod = p ** _K(p, M, 0)
    T = teichmueller(p, primitive_root(p), M).coeffs[0]
    return tuple(pow1), tuple(pow(T, j, mod) for j in range(p - 1))


def embed_cyclotomic(a: CycNum, p: int, M: int | None = None) -> PadicApprox:
    """Embed a cyclotomic number of conductor dividing p(p-1) into
    Z_p[lambda] mod lambda^M.

    The embedding is fixed by zeta_p -> 1 + lambda and zeta_{p-1} -> the
    Teichmueller lift of the smallest primitive root mod p; all smaller
    conductors are embedded compatibly through zeta_n = zeta_N^{N/n} with
    N = p(p-1).  Rational coefficients must be p-integral.  The Teichmueller
    factors are integers mod p^K_0, so the terms are summed per power of
    1 + lambda and each sum takes one multiply.
    """
    if M is None:
        M = 4 * (p - 1)
    N = p * (p - 1)
    n = a.n
    if N % n:
        raise ValueError(f"conductor {n} does not divide {N} = p(p-1)")
    # den is coprime to the numerators, so p | den iff some coefficient
    # has p in its denominator.
    if a.den % p == 0:
        raise ValueError("coefficient is not p-integral")
    pow1, powT = _root_powers(p, M)
    mod0 = p ** _K(p, M, 0)
    k = N // n
    sums = [0] * p
    for e, c in enumerate(a.num):
        if c:
            E = e * k % N
            sums[-E % p] += c * powT[E % (p - 1)]
    scale = pow(a.den, -1, mod0)
    acc = PadicApprox.zero(p, M)
    for u, s in enumerate(sums):
        if s % mod0:
            acc = acc + pow1[u] * (s * scale % mod0)
    return acc


def lambda_valuation(a: CycNum, p: int, precision: int | None = None) -> int:
    """Exact lambda-adic valuation of a nonzero cyclotomic integer whose
    conductor divides p(p-1).

    With no explicit precision, starts at 4(p-1) and doubles on exhaustion
    up to 64(p-1) before giving up.
    """
    if a.is_zero():
        raise ValueError("zero has no valuation")
    if precision is not None:
        return embed_cyclotomic(a, p, precision).valuation()
    M = 4 * (p - 1)
    cap = 64 * (p - 1)
    while True:
        try:
            return embed_cyclotomic(a, p, M).valuation()
        except PrecisionExhausted:
            if M >= cap:
                raise
            M = min(2 * M, cap)
