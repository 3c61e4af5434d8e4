"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is (n, num, den): num holds phi(n) int numerators on the reduced
power basis {zeta_n^i : i < phi(n)} and den > 0 is one common denominator,
normalized so that gcd(den, *num) = 1.  Equal elements at one conductor
therefore have identical fields, equality compares them exactly, and zero
is an all-zero num over den 1.  `coeffs` is a read-only {exponent:
Fraction} view for readers that want rationals.  Mixed-conductor
arithmetic embeds both operands into the lcm conductor through
zeta_n = zeta_{kn}^k (exponent i at n becomes i*k at kn) and stays there.

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
numerator vector is packed into one int as sum c_i 2^(k i), the two ints
are multiplied once, and the product f is reduced modulo Phi_n in packed
form.  With Psi_n = (x^n - 1)/Phi_n, the quotient of f by Phi_n is the part
of f_high Psi_n at degrees >= n - phi(n), f_high being f above degree
phi(n), whenever deg f < n + phi(n).  So reduction is two more multiplies,
r(2^k) = f(2^k) - q(2^k) Phi_n(2^k), and one unpack; the low terms of
Psi_n that cannot reach the quotient are dropped first.  The slot width
comes from a bound on every coefficient that occupies a slot,
|a|_1 |b|_1 (1 + max|Psi_n| |Phi_n|_1).  When that fits a machine word the
slots are the narrowest of 16, 32 and 64 bits that holds it, converted as
C arrays through int.to_bytes/from_bytes: narrow slots pay, since a
690 x 690-slot multiply (a length-930 reduction) takes 1.06 ms at 64 bits
and 0.41 ms at 32 on CPython 3.11, 2-core x86-64 VM.  Wider bounds get as
many bytes as they need, converted one coefficient at a time.  A bias of
2^(k-1) per slot keeps signed slots from borrowing from their neighbours.

Packing costs O(phi(n)) however few terms the operands have, and character
values are mostly monomials and short sums of roots of unity.  So when
nnz(a) nnz(b) <= phi(n) the product is a direct convolution of the nonzero
terms, and only a result with terms at degree >= phi(n) is packed for the
reduction.  The path is read off the operands; there is no setting.

Character sums sum_j w_j a_j b_j (projections, sums from coefficients,
induction, eigenfactor DFTs) go through one private kernel, `_dot`, which
extends the same packing from one product to whole sums: each distinct
operand list is walked once and each distinct operand packed once per
call, a sum's products are added as big ints, and each sum is reduced
modulo Phi_n once.  Callers pass operands with any denominators.  The
slots hold a bound on sum_j |W_j| |A_j|_1 |B_j|_1 (1 + spread) over the
integer weights and numerators, which bounds every slot of the sum and of
its reduction by the argument of `_table`; for integral operands it is
|W|_1 times the largest |A|_1 of each operand list, O(1) per sum.
Roots of unity come from `zeta`, which is cached, so equal roots are one
object and `_dot` packs each of them once.

An identity needs a yes or no, not a canonical form, and `_ZeroTest`
answers it with no reduction modulo Phi_n: Phi_n divides D exactly when
D Psi_n vanishes modulo x^n - 1, and on ints packed at 8 kb bits a slot,
x^n - 1 becomes a fold modulo 2^(8 kb n) - 1 by shifts and masks.  The
test is exact while |D|_1 |Psi_n|_1 < 2^(8 kb - 1), which bounds every
coefficient of D Psi_n folded modulo x^n - 1 (the class docstring has
the argument).  Psi_n and operands at a conductor dividing n act as sums
of shifts: the Gauss/Jacobi sweep pays one packed product per pair of
Gauss sums, `CharTable.certify` one per term of its sums, and no reduction.

`_table(n)` is the one cached table per conductor: Phi_n, Psi_n and their
packings, O(n) ints, used by every reduction (products, construction,
embedding, Galois action, `shrink_to`).  A dense table of the rows
x^e mod Phi_n would hold (n - phi(n)) phi(n) ints per conductor, 165,600
at n = 930, and every table kept beside it adds to peak memory.

Division and descent use the same numerators and products.  `inverse` is
the product of the other Galois conjugates over the norm, and `norm` is
x times that product; the conjugates are multiplied as a balanced tree.
`shrink_to(m)` for n = m r, gcd(m, r) = 1, keeps the zeta_r^0 coordinate
of each term zeta_n^e = zeta_r^(e alpha) zeta_m^(e beta), reduces the
result once modulo Phi_m, and accepts it only if it embeds back to the
element.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, mul
from types import MappingProxyType

from .arith import euler_phi, prime_factors

# Arrays convert in native byte order; packed ints are little-endian.
_SWAP = sys.byteorder != "little"
_denominator = attrgetter("denominator")
_den = attrgetter("den")


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (ascending coeffs), monic divisor,
    remainder known to vanish."""
    num = list(num)
    dd = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den) if d]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in terms:
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


# -- packed integer kernel --------------------------------------------------

# Slot widths in bytes that an array type converts in C, with its typecode.
_ARRAY = {array(t).itemsize: t for t in "qih"}
_WIDTHS = sorted(_ARRAY)


@lru_cache(maxsize=256)
def _bias(count: int, kb: int) -> int:
    """2^(8 kb - 1) in each of `count` slots of kb bytes."""
    return int.from_bytes((bytes(kb - 1) + b"\x80") * count, "little")


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for ints of magnitude <= bound: the narrowest array
    width that holds them, else as many bytes as the bound needs."""
    kb = (bound.bit_length() + 8) // 8
    for w in _WIDTHS:
        if kb <= w:
            return w
    return kb


def _pack(coeffs, kb: int) -> int:
    """sum coeffs[i] 2^(8 kb i); every |coeffs[i]| < 2^(8 kb - 1)."""
    code = _ARRAY.get(kb)
    if code:
        words = array(code, coeffs)
        if _SWAP:
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join(c.to_bytes(kb, "little", signed=True) for c in coeffs)
    m = _bias(len(coeffs), kb)
    return (int.from_bytes(raw, "little") ^ m) - m


def _unpack(value: int, count: int, kb: int) -> list[int]:
    """Inverse of _pack for `count` slots."""
    m = _bias(count, kb)
    raw = ((value + m) ^ m).to_bytes(count * kb, "little")
    code = _ARRAY.get(kb)
    if code:
        words = array(code, raw)
        if _SWAP:
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(raw[i:i + kb], "little", signed=True)
            for i in range(0, len(raw), kb)]


def _high(value: int, slots: int, kb: int) -> int:
    """The packed coefficients at degrees >= slots.  Exact because every
    slot is below 2^(8 kb - 1) in magnitude, so the part below the split
    lies strictly between -1/2 and 1/2 of its unit and rounds away."""
    if not slots:
        return value
    return ((value >> (8 * kb * slots - 1)) + 1) >> 1


@lru_cache(maxsize=None)
def _table(n: int) -> tuple:
    """(phi(n), spread, step, Phi_n, Psi_n, packings) for conductor n.

    step = n/p for the least prime p | n (0 for n = 1): Phi_n divides
    sum_{j<p} x^(j step), so x^((p-1) step) folds onto p - 1 lower terms.

    No slot of a reduction of f exceeds max|f| + |f_high|_1 spread in
    magnitude, spread = max|Psi_n| |Phi_n|_1, where f_high is f above
    degree phi(n): q has no coefficient above |f_high|_1 max|Psi_n|, and
    r = f - q Phi_n.  packings maps a slot width to (Phi_n, Psi_n) packed
    at it, filled on first use."""
    big = cyclotomic_poly(n)
    small = tuple(_poly_div_exact([-1] + [0] * (n - 1) + [1], big))
    spread = max(map(abs, small)) * sum(map(abs, big))
    step = n // prime_factors(n)[0] if n > 1 else 0
    return euler_phi(n), spread, step, big, small, {}


def _reduce_packed(n: int, f: int, length: int, kb: int) -> list[int]:
    """Numerators of f mod Phi_n, for f packed in `length` slots of kb
    bytes with phi(n) < length < n + phi(n), and slots that hold the bound
    of `_table`."""
    phi, _, _, big, small, packings = _table(n)
    if kb not in packings:
        packings[kb] = _pack(big, kb), _pack(small, kb)
    big, small = packings[kb]
    # q = (f_high Psi_n) at degrees >= n - phi; Psi_n below degree `cut`
    # only reaches lower degrees, so it is dropped before the multiply.
    cut = max(0, n - length + 1)
    q = _high(_high(f, phi, kb) * _high(small, cut, kb), n - phi - cut, kb)
    return _unpack(f - q * big, phi, kb)


class _ZeroTest:
    """Exact tests of D = 0 in Q(zeta_n) that never reduce modulo Phi_n,
    for the Gauss/Jacobi sweep and `CharTable.certify`.

    x^n - 1 = Phi_n Psi_n divides D Psi_n exactly when Phi_n divides D
    (Phi_n and Psi_n are coprime, x^n - 1 being squarefree; or cancel
    Psi_n in Z[x]).  With B = 2^(8 kb) and M = B^n - 1, B^n = 1 mod M, so
    x -> B maps Z[x]/(x^n - 1) into Z/M: packed products taken mod M, and
    shifts by whole slots, give (D Psi_n)(B) mod M.  Reducing mod M folds
    blocks of 8 kb n bits with shifts and masks, no division.  Let g be
    D Psi_n folded mod x^n - 1: deg g < n, and no coefficient exceeds
    |D|_1 |Psi_n|_1 in magnitude.  Below 2^(8 kb - 1) that makes
    |g(B)| < M/2, so g(B) = 0 mod M forces g(B) = 0, and then g = 0,
    since balanced base-B digits are unique.  So a zero residue means
    Phi_n | D, and a nonzero one means it does not.

    A packed value is multiplied by Psi_n as sums of shifts, one per
    sparse factor: for n = q m with q the largest prime of n,
    Psi_n(x) = Phi_m(x) Psi_m(x^q) if q does not divide m, and
    Psi_m(x^q) if it does.  At the Gauss sweep's conductors p(p - 1) that
    is 7 + 12 shifts at p = 61 (Psi_n itself has 84 terms) and 5 + 4 at
    p = 101.

    `bound` must bound |D|_1 for every D tested, D's operands being
    integral CycNums at conductors dividing n.  Slots are the fewest bytes
    that hold bound |Psi_n|_1 and a sign, not an array width: operands are
    packed once, and every product and shift after that is on ints of
    that many bytes per slot (5 in place of 8 at p = 71)."""

    __slots__ = ("n", "kb", "width", "mask", "psi")

    def __init__(self, n: int, bound: int):
        self.n = n
        psi_l1 = sum(map(abs, _table(n)[4]))
        self.kb = kb = (bound * psi_l1).bit_length() // 8 + 1
        self.width = 8 * kb * n
        self.mask = (1 << self.width) - 1  # M
        q = prime_factors(n)[-1] if n > 1 else 1
        m = n // q
        # Phi_m(x) first: it has the lower degree, so the ints stay short.
        factors = [(cyclotomic_poly(m), 1)] if m % q else []
        factors.append((_table(m)[4], q))  # Psi_m(x^q)
        # per factor: its coefficients, each with its terms' shifts in bits
        self.psi = []
        for poly, step in factors:
            shifts = {}
            for e, c in enumerate(poly):
                if c:
                    shifts.setdefault(c, []).append(8 * kb * step * e)
            self.psi.append(sorted(shifts.items()))

    def pack(self, x: "CycNum") -> int:
        """x's numerators packed at this slot width; x integral at n."""
        if x.den != 1 or x.n != self.n:
            raise ValueError("zero test needs integral operands at "
                             f"conductor {self.n}")
        return _pack(x.num, self.kb)

    def fold(self, v: int) -> int:
        """v mod M, in 0..M (M itself is a zero residue)."""
        width, mask = self.width, self.mask
        while v >> width:
            v = (v & mask) + (v >> width)
        return v

    def times_psi(self, v: int) -> int:
        """v Psi_n mod M, for a packed or folded v."""
        for factor in self.psi:
            v = self.fold(sum(c * sum(v << s for s in shifts)
                              for c, shifts in factor))
        return v

    def rotations(self, x: "CycNum", t: int) -> int:
        """x t, unfolded, for integral x at a conductor L dividing n: each
        term c zeta_L^e is c times t shifted by e n/L slots, so there is no
        full-width product."""
        if x.den != 1 or self.n % x.n:
            raise ValueError("zero test needs integral operands at "
                             f"conductors dividing {self.n}")
        unit = 8 * self.kb * (self.n // x.n)
        return sum(c * (t << e * unit) for e, c in enumerate(x.num) if c)

    def is_zero(self, v: int) -> bool:
        """Whether v is 0 mod M: Phi_n | D for v = (D Psi_n)(B) mod M."""
        v = self.fold(v)
        return not v or v == self.mask


def _reduce(n: int, raw: list[int]) -> list[int]:
    """Numerators of sum raw[e] x^e mod Phi_n, len(raw) < n + phi(n)."""
    phi, spread, step = _table(n)[:3]
    cut = n - step  # fold degrees >= cut down first, as _table describes
    if cut < len(raw) <= n:
        top = raw[cut:]
        raw = raw[:cut]
        for j in range(0, cut, step):
            raw[j:j + len(top)] = [c - t for c, t in zip(raw[j:], top)]
    high = raw[phi:]
    if not any(high):
        return raw[:phi] + [0] * (phi - len(raw))
    kb = _slot_bytes(max(map(abs, raw)) + sum(map(abs, high)) * spread)
    return _reduce_packed(n, _pack(raw, kb), len(raw), kb)


def _folded(n: int, terms) -> list[int]:
    """Length-n integer vector of (exponent, numerator) pairs, exponents
    taken mod n."""
    raw = [0] * n
    for e, c in terms:
        raw[e % n] += c
    return raw


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form.

    Not hashable: equal elements may live at different conductors, which
    would break any conductor-dependent hash.
    """

    __slots__ = ("n", "num", "den")
    __hash__ = None

    def __init__(self, n: int, coeffs: dict):
        if n < 1:
            raise ValueError("conductor must be positive")
        try:
            den = math.lcm(*set(map(_denominator, coeffs.values())))
        except AttributeError:
            raise TypeError("coefficients must be ints or Fractions") from None
        raw = _folded(n, ((e, c.numerator * (den // c.denominator))
                          for e, c in coeffs.items()))
        self.n = n
        self.num, self.den = _normal(_reduce(n, raw), den)

    @classmethod
    def _make(cls, n: int, num: list[int], den: int) -> "CycNum":
        """The element num/den at conductor n, num reduced, den > 0."""
        obj = object.__new__(cls)
        obj.n = n
        obj.num, obj.den = _normal(num, den)
        return obj

    @classmethod
    def from_rational(cls, x) -> "CycNum":
        x = _as_fraction(x)
        return cls._make(1, [x.numerator], x.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {exponent: Fraction} view of the nonzero coefficients."""
        den = self.den
        return MappingProxyType(
            {e: Fraction(c, den) for e, c in enumerate(self.num) if c})

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def embed(self, m: int) -> "CycNum":
        """Rewrite at conductor m, where n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        k = m // self.n
        raw = [0] * ((len(self.num) - 1) * k + 1)
        raw[::k] = self.num
        return CycNum._make(m, _reduce(m, raw), self.den)

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        if self.n == other.n:
            return self, other, self.n
        m = math.lcm(self.n, other.n)
        return self.embed(m), other.embed(m), m

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = self._common(other)
        da, db = a.den, b.den
        if da == db:
            return CycNum._make(m, [x + y for x, y in zip(a.num, b.num)], da)
        return CycNum._make(
            m, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            if isinstance(other, (int, Fraction)):
                return CycNum._make(self.n, [c * other.numerator for c in self.num],
                                    self.den * other.denominator)
            return NotImplemented
        a, b, m = self._common(other)
        phi = len(a.num)
        den = a.den * b.den
        nnz_a = phi - a.num.count(0)
        nnz_b = phi - b.num.count(0)
        if not nnz_a or not nnz_b:
            return CycNum._make(m, [0] * phi, 1)
        if nnz_a * nnz_b <= phi:
            raw = [0] * (2 * phi - 1)
            terms_b = [(j, y) for j, y in enumerate(b.num) if y]
            for i, x in enumerate(a.num):
                if x:
                    for j, y in terms_b:
                        raw[i + j] += x * y
            return CycNum._make(m, _reduce(m, raw), den)
        l1 = sum(map(abs, a.num)) * sum(map(abs, b.num))  # >= |a b|_1
        kb = _slot_bytes(l1 * (1 + _table(m)[1]))
        f = _pack(a.num, kb) * _pack(b.num, kb)
        return CycNum._make(m, _reduce_packed(m, f, 2 * phi - 1, kb), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse: the product of the other Galois
        conjugates divided by the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        rest = self._other_conjugates()
        total = self * rest  # rational: total.num[0] / total.den
        q, d = total.num[0], total.den
        if q < 0:
            q, d = -q, -d
        return CycNum._make(self.n, [c * d for c in rest.num], rest.den * q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum._make(self.n, [1] + [0] * (len(self.num) - 1), 1)
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
        return a.num == b.num and a.den == b.den

    # -- field structure ---------------------------------------------------

    def galois_apply(self, k: int) -> "CycNum":
        """Image under the automorphism zeta_n -> zeta_n^k; gcd(k, n) = 1."""
        k %= self.n
        if math.gcd(k, self.n) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {self.n}")
        if k == 1:
            return self
        raw = _folded(self.n, ((e * k, c) for e, c in enumerate(self.num)))
        return CycNum._make(self.n, _reduce(self.n, raw), self.den)

    def as_rational(self) -> Fraction:
        """This element as a Fraction; raises if it is irrational."""
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def _other_conjugates(self) -> "CycNum":
        """Product of sigma_k(self) over the units k mod n other than 1.

        Multiplied as a balanced tree: coefficients grow with the number of
        factors, and products of equal size cost far less in total than
        one growing accumulator times one factor at a time."""
        terms = [self.galois_apply(k) for k in range(2, self.n)
                 if math.gcd(k, self.n) == 1]
        if not terms:  # n is 1 or 2, phi(n) = 1
            return CycNum._make(self.n, [1], 1)
        while len(terms) > 1:
            terms = [a * b for a, b in zip(terms[::2], terms[1::2])] \
                + terms[len(terms) - len(terms) % 2:]
        return terms[0]

    def norm(self) -> Fraction:
        """Absolute norm: product over all Galois conjugates."""
        return (self * self._other_conjugates()).as_rational()

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
        # zeta_n^e = zeta_r^(e alpha) zeta_m^(e beta); keep the zeta_r^0
        # coordinate of each term.  const[u] is that coordinate of x^u mod
        # Phi_r, by the recurrence x^phi = -sum_{i<phi} Phi_r[i] x^i.
        phi_r, _, _, big = _table(r)[:4]
        const = [1] + [0] * (r - 1)
        for u in range(phi_r, r):
            const[u] = -sum(c * const[u - phi_r + i]
                            for i, c in enumerate(big[:-1]) if c)
        raw = [0] * m
        for e, c in enumerate(self.num):
            if c:
                raw[e * beta % m] += c * const[e * alpha % r]
        out = CycNum._make(m, _reduce(m, raw), self.den)
        if out.embed(self.n) != self:
            raise ValueError(f"element does not lie in Q(zeta_{m})")
        return out

    # -- presentation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "coeffs": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    def __repr__(self):
        if not self:
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


def _dot(sums: list) -> list[CycNum]:
    """[sum_j w[j] a[j] b[j] for each (w, a, b) in sums]: w holds int or
    Fraction weights and a, b hold CycNums of any denominators, all three
    of one length per sum.  Every sum is returned at the lcm conductor n of
    all operands.

    Lists and operands are told apart by id, which `sums` keeps alive:
    each distinct operand list is walked once, and each distinct operand
    embedded at n and packed once for all the sums; a sum adds its
    products as packed ints and is reduced modulo Phi_n once.  Over a
    common denominator D, w_j a_j b_j = W_j A_j B_j / D with integer
    weights W_j and numerators A_j, B_j, and no slot of the sum or of its
    reduction exceeds sum_j |W_j| |A_j|_1 |B_j|_1 (1 + spread) (see
    `_table`).  With integral operands W is w over its own denominator,
    and min(P(w, a) max|B|_1, P(w, b) max|A|_1), P(w, a) = sum_j |W_j|
    |A_j|_1 taken once per pair of weight list and operand list and max|A|_1
    once per operand list, bounds that sum in O(1); otherwise one pass per
    sum folds the operands' denominators into W and takes the sum itself.
    The largest bound, and every operand's own |A|_1, sets one slot
    width."""
    lists = {}
    for _, a, b in sums:
        lists[id(a)] = a
        lists[id(b)] = b
    ops = {}
    for a in lists.values():
        ops.update(zip(map(id, a), a))
    n = math.lcm(*(x.n for x in ops.values()))
    phi, spread = _table(n)[:2]
    unit = all(x.den == 1 for x in ops.values())
    ops = {i: x.embed(n) for i, x in ops.items()}
    l1 = {i: sum(map(abs, x.num)) for i, x in ops.items()}
    if unit:  # largest |A|_1 of each list
        top = {i: max(map(l1.get, map(id, a)), default=0)
               for i, a in lists.items()}
    over = {}  # id(w) -> (lcm of w's denominators, w's numerators)
    paired = {}  # (id(w), id(a)) -> P(w, a)

    def weighted(w, a):
        key = id(w), id(a)
        if key not in paired:
            paired[key] = sum(map(mul, map(abs, over[id(w)][1]),
                                  map(l1.get, map(id, a))))
        return paired[key]

    prepared = []  # (W, D) per sum
    bound = max(l1.values(), default=0)  # every operand is packed
    for w, a, b in sums:
        if id(w) not in over:
            d = math.lcm(*map(_denominator, w))
            over[id(w)] = d, [c.numerator * (d // c.denominator) for c in w]
        den, weights = over[id(w)]
        if unit:
            bound = max(bound, min(weighted(w, a) * top[id(b)],
                                   weighted(w, b) * top[id(a)]))
        else:
            d = list(map(mul, map(_den, a), map(_den, b)))
            lcm = math.lcm(*d)
            den *= lcm
            weights = list(map(mul, weights, map(lcm.__floordiv__, d)))
            bound = max(bound, sum(map(mul, map(mul, map(abs, weights),
                                                map(l1.get, map(id, a))),
                                       map(l1.get, map(id, b)))))
        prepared.append((weights, den))
    kb = _slot_bytes(bound * (1 + spread))
    ints = {i: _pack(x.num, kb) for i, x in ops.items()}
    packed = {i: list(map(ints.get, map(id, a))) for i, a in lists.items()}
    out = []
    for (_, a, b), (weights, den) in zip(sums, prepared):
        f = sum(map(mul, map(mul, weights, packed[id(a)]), packed[id(b)]))
        num = _reduce_packed(n, f, 2 * phi - 1, kb) if phi > 1 \
            else _unpack(f, 1, kb)
        out.append(CycNum._make(n, num, den))
    return out


def _normal(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(den, *num); zero becomes den 1."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational scalar, got {type(x).__name__}")


def _promote(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    return NotImplemented


@lru_cache(maxsize=None)
def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k as a CycNum of conductor n.  Cached:
    CycNums are immutable, so each root is built once and equal calls
    share one object, which `_dot` then packs once."""
    return CycNum(n, {k: 1})
