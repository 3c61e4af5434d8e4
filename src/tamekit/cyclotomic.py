"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum stores rational coefficients on the power basis {zeta_n^i} and is
kept reduced modulo the n-th cyclotomic polynomial, so the canonical support
is a subset of {0, ..., phi(n)-1} and two equal elements at the same
conductor have identical coefficient dicts.  Mixed-conductor arithmetic
embeds both operands into the lcm conductor through zeta_n = zeta_{kn}^k and
stays there; results are not moved back down to smaller conductors.

The family {zeta_n} is compatible by construction: the embedding map sends
exponent i at conductor n to exponent i*k at conductor k*n, which is exactly
the relation (zeta_{kn})^k = zeta_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import euler_phi


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (ascending coeffs), monic divisor,
    remainder known to vanish."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in enumerate(den):
                num[i - dd + j] -= c * d
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, degree phi(n)."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> list[tuple[int, ...]]:
    """rows[e - phi(n)] = coefficients of x^e mod Phi_n for phi(n) <= e < n."""
    phi = euler_phi(n)
    if phi == n:
        return []
    head = cyclotomic_poly(n)[:phi]
    rows = []
    prev = [-c for c in head]
    rows.append(tuple(prev))
    for _ in range(phi + 1, n):
        top = prev[phi - 1]
        cur = [0] + prev[:-1]
        if top:
            cur = [a - top * c for a, c in zip(cur, head)]
        rows.append(tuple(cur))
        prev = cur
    return rows


def _canonicalize(n: int, raw: dict) -> dict[int, Fraction]:
    """Fold a sparse exponent->coefficient dict into the canonical
    representative modulo Phi_n.  Exponents may be any integers."""
    phi = euler_phi(n)
    merged: dict[int, object] = {}
    for e, c in raw.items():
        if c:
            e %= n
            v = merged.get(e, 0) + c
            if v:
                merged[e] = v
            elif e in merged:
                del merged[e]
    high = [(e, c) for e, c in merged.items() if e >= phi]
    if not high:
        return {e: Fraction(c) for e, c in merged.items()}
    # Scale to integers once so the row accumulation below runs on ints.
    den = 1
    for c in merged.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    acc = [0] * phi
    for e, c in merged.items():
        if e < phi:
            acc[e] = int(c * den)
    rows = _reduction_rows(n)
    for e, c in high:
        ci = int(c * den)
        row = rows[e - phi]
        acc = [a + ci * r for a, r in zip(acc, row)]
    return {i: Fraction(v, den) for i, v in enumerate(acc) if v}


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational scalar, got {type(x).__name__}")


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form.

    Not hashable: equal elements may live at different conductors, which
    would break any conductor-dependent hash.
    """

    __slots__ = ("n", "coeffs")
    __hash__ = None

    def __init__(self, n: int, coeffs: dict):
        if n < 1:
            raise ValueError("conductor must be positive")
        self.n = n
        self.coeffs = _canonicalize(n, coeffs)

    @classmethod
    def _make(cls, n: int, canonical: dict[int, Fraction]) -> "CycNum":
        obj = object.__new__(cls)
        obj.n = n
        obj.coeffs = canonical
        return obj

    @classmethod
    def from_rational(cls, x) -> "CycNum":
        x = _as_fraction(x)
        return cls._make(1, {0: x} if x else {})

    # -- structure ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.n

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def embed(self, m: int) -> "CycNum":
        """Rewrite at conductor m, where n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        k = m // self.n
        return CycNum(m, {e * k: c for e, c in self.coeffs.items()})

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.embed(m), other.embed(m), m

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return CycNum._make(m, out)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycNum._make(self.n, {})
            return CycNum._make(self.n, {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b, m = self._common(other)
        raw: dict[int, Fraction] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                raw[e] = raw.get(e, 0) + c1 * c2
        return CycNum(m, raw)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_n over Q."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        phi = euler_phi(self.n)
        f = [Fraction(0)] * phi
        for e, c in self.coeffs.items():
            f[e] = c
        g = [Fraction(c) for c in cyclotomic_poly(self.n)]
        # invariant: s*f + (...)*Phi = r
        r0, r1 = g, f
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _trim(r1)
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0]
        if not c:
            raise ZeroDivisionError("inverse of zero")
        inv = {i: v / c for i, v in enumerate(s1) if v}
        return CycNum(self.n, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum._make(self.n, {0: Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    # -- field structure ---------------------------------------------------

    def galois_apply(self, k: int) -> "CycNum":
        """Image under the automorphism zeta_n -> zeta_n^k; gcd(k, n) = 1."""
        k %= self.n
        if math.gcd(k, self.n) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {self.n}")
        if k == 1:
            return self
        return CycNum(self.n, {e * k: c for e, c in self.coeffs.items()})

    def conjugate(self) -> "CycNum":
        return self.galois_apply(-1)

    def as_rational(self) -> Fraction:
        """This element as a Fraction; raises if it is irrational."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        raise ValueError("element is not rational")

    def is_rational(self) -> bool:
        return set(self.coeffs) <= {0}

    def norm(self) -> Fraction:
        """Absolute norm: product over all Galois conjugates."""
        acc = CycNum._make(1, {0: Fraction(1)})
        for k in range(1, self.n + 1):
            if math.gcd(k, self.n) == 1:
                acc = acc * self.galois_apply(k)
        return acc.as_rational()

    def shrink_to(self, m: int) -> "CycNum":
        """Rewrite at conductor m where m | n and gcd(m, n/m) = 1; raises if
        the element does not lie in Q(zeta_m)."""
        if self.n == m:
            return self
        if m < 1 or self.n % m:
            raise ValueError(f"{m} does not divide conductor {self.n}")
        r = self.n // m
        if math.gcd(m, r) != 1:
            raise ValueError("conductor split must be coprime")
        alpha = pow(m, -1, r)
        beta = pow(r, -1, m)
        # zeta_n^e = zeta_r^(e*alpha) * zeta_m^(e*beta)
        buckets: dict[int, dict[int, Fraction]] = {}
        for e, c in self.coeffs.items():
            u = (e * alpha) % r
            v = (e * beta) % m
            b = buckets.setdefault(u, {})
            b[v] = b.get(v, 0) + c
        phir = euler_phi(r)
        rows = _reduction_rows(r)
        final: list[dict[int, Fraction]] = [{} for _ in range(phir)]

        def _bucket_add(idx, bucket, scale):
            tgt = final[idx]
            for v, c in bucket.items():
                w = tgt.get(v, 0) + c * scale
                if w:
                    tgt[v] = w
                elif v in tgt:
                    del tgt[v]

        for u, bucket in buckets.items():
            if u < phir:
                _bucket_add(u, bucket, 1)
            else:
                for idx, rc in enumerate(rows[u - phir]):
                    if rc:
                        _bucket_add(idx, bucket, rc)
        for idx in range(1, phir):
            if any(final[idx].values()):
                raise ValueError(f"element does not lie in Q(zeta_{m})")
        return CycNum(m, final[0])

    # -- presentation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "coeffs": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CycNum":
        return cls(d["n"], {int(e): Fraction(c) for e, c in d["coeffs"]})

    def __repr__(self):
        if not self.coeffs:
            return f"CycNum({self.n}; 0)"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            term = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(term)
            elif c == -1:
                parts.append(f"-{term}")
            else:
                parts.append(f"{c}*{term}")
        return f"CycNum({self.n}; " + " + ".join(parts).replace("+ -", "- ") + ")"


def _promote(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    return NotImplemented


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k as a CycNum of conductor n."""
    return CycNum(n, {k: Fraction(1)})


# -- dense polynomial helpers over Q (ascending coefficients) --------------

def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    b = _trim(list(b))
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / lead
            q[i - db] = f
            for j, bc in enumerate(b):
                a[i - db + j] -= f * bc
    return q, _trim(a[:db] if db else [Fraction(0)])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out
