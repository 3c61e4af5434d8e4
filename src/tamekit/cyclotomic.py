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
many bytes as they need, converted one coefficient at a time; the 8-bit
slots that `_ZeroTest` may choose are C arrays too.  A bias of
2^(k-1) per slot keeps signed slots from borrowing from their neighbours.

Packing costs O(phi(n)) however few terms the operands have, and character
values are mostly monomials and short sums of roots of unity.  So when
nnz(a) nnz(b) <= phi(n) the product is a direct convolution of the nonzero
terms, nnz(a) nnz(b) int products, wrapped modulo x^n - 1 and folded
(`_reduce`): at a prime power n no short product is packed.  A rational
operand (all numerators but num[0] zero) scales the other's numerators,
with no product or reduction; rationals invert as Fractions and take
powers on their numerator and denominator.

Character sums go through one private kernel, `_PackedMatrix`: a table
(characters, or the DFT matrix zeta_h^(ij)) is embedded, cleared of its
denominator, normed and packed once per slot width, by row and by column.
`dot`, sum_j w_j a_j B_tj for every row t (projections, DFTs), takes one
product of each packed a_j and column, k in place of k^2 small ones, and
reduces each row's block modulo Phi_n once, its slots holding the bound
sum_j |W_j| |A_j|_1 max_t |B_tj|_1 (1 + spread) of `_table`'s argument.
`combine`, sum_t c_t B_tj for every column j (values from coefficients),
is an integer combination of the packed rows: no product, no reduction.

An identity needs a yes or no, not a canonical form, and `_ZeroTest`
answers it by the ideal norm, with no reduction modulo Phi_n: on ints
packed at B = 2^(8 kb) a slot, x^n - 1 becomes a fold modulo B^n - 1, and
D h, h = prod_{q | n} (x^(n/q) - 1) over primes q, a unit times Psi_n at
zeta_n, vanishes there exactly when D = 0, once B - 1 exceeds |sigma(D)|
in every embedding sigma (see the class).  So slots are sized by D's
values, and h costs one shift and subtraction per prime of n.  Operands
at a conductor dividing n act as sums of shifts: the Gauss/Jacobi sweep
pays one packed product per pair of Gauss sums, `CharTable.certify` one
per term of its sums, and no reduction.

`_table(n)` is the one cached table per conductor: Phi_n, Psi_n and their
packings, O(n) ints, used by every reduction (products, construction,
embedding, Galois action, `shrink_to`).  A dense table of the rows
x^e mod Phi_n would hold (n - phi(n)) phi(n) ints per conductor, 165,600
at n = 930, and every table kept beside it adds to peak memory.

Division and descent use the same numerators and products.  `inverse` of
an irrational x is its other Galois conjugates' product over the norm,
`norm` is x times that product; the conjugates multiply as a balanced tree.
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
from itertools import accumulate
from operator import add, attrgetter, sub
from types import MappingProxyType

from .arith import euler_phi, prime_factors

# Arrays convert in native byte order; packed ints are little-endian.
_SWAP = sys.byteorder != "little"
_denominator = attrgetter("denominator")
_den = attrgetter("den")


def _binomials(n: int, sign: int) -> tuple[int, ...]:
    """Phi_n for sign 1 and -Psi_n for sign -1, n > 1.  With m the product
    of the primes of n, Phi_n(x) = Phi_m(x^(n/m)), Psi_n likewise, and
    prod_{d | m} (1 - x^d)^(sign mu(m/d)) is Phi_m (the signs cancel, as
    sum mu = 0), or -Psi_m to its degree m - phi(m), as the factor 1 - x^m
    of x^m - 1 = prod_{d | m} Phi_d only reaches higher ones.  Each 1 - x^d
    is one pass of subtractions, each inverse 1 + x^d + x^2d + ... one
    running sum along every residue class mod d."""
    primes = prime_factors(n)
    m = math.prod(primes)
    degree = euler_phi(m) if sign > 0 else m - euler_phi(m)
    divisors = [(m, 1)]  # (d, mu(m/d))
    for q in primes:
        divisors += [(d // q, -mu) for d, mu in divisors]
    f = [1] + [0] * degree
    for d, mu in divisors:
        if d <= degree and mu == sign:
            f[d:] = list(map(sub, f[d:], f))
    for d, mu in divisors:
        if d <= degree and mu != sign:
            for r in range(d):
                f[r::d] = accumulate(f[r::d])
    out = [0] * (degree * (n // m) + 1)
    out[::n // m] = f
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, degree phi(n), from the
    Moebius product of binomials (`_binomials`)."""
    return _binomials(n, 1) if n > 1 else (-1, 1)


# -- packed integer kernel --------------------------------------------------

# Slot widths in bytes that an array type converts in C, with its typecode.
# `_slot_bytes` picks from 2 bytes up; 1-byte slots come from `_ZeroTest`.
_ARRAY = {array(t).itemsize: t for t in "qihb"}
_WIDTHS = sorted(w for w in _ARRAY if w > 1)


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
    small = tuple(-c for c in _binomials(n, -1)) if n > 1 else (1,)
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

    The test reads (d h)(B) mod M for an integral representative d of D,
    B = 2^(8 kb), M = B^n - 1 and h = prod_{q | n} (x^(n/q) - 1), q prime.
    As B^n = 1 mod M, packed products and whole-slot shifts follow x -> B
    in Z[x]/(x^n - 1); reducing mod M folds blocks of 8 kb n bits by
    shifts and masks, and h is one shift and subtraction per q.

    Every proper divisor of n divides some n/q, so h = Psi_n u in Z[x],
    Psi_n = (x^n - 1)/Phi_n, and u(zeta_n) is a unit: h and Psi_n have the
    norm n^phi(n)/|disc Q(zeta_n)| at zeta_n, up to sign (Washington,
    Introduction to Cyclotomic Fields, Prop. 2.7).  If D = 0, x^n - 1
    divides d h.  If the residue is 0, cancelling Psi_n(B) from
    M | d(B) Psi_n(B) u(B) leaves Phi_n(B) | d(B) u(B), an element of the
    ideal (zeta_n - B) of norm Phi_n(B), so Phi_n(B) | N(D).  `bound` must
    bound |sigma(D)| in every complex embedding sigma, as the l1 norm of
    any integral representative does, and slots are the fewest bytes with
    B - 1 > bound; then |N(D)| < (B - 1)^phi(n) <= Phi_n(B), so N(D) = 0.
    Operands are packed once and must fit a slot with a sign, which `pack`
    checks; later products and shifts keep kb bytes a slot (2 in the sweep
    at every p <= 101)."""

    __slots__ = ("n", "kb", "width", "mask", "shifts")

    def __init__(self, n: int, bound: int):
        self.n = n
        self.kb = kb = ((bound + 1).bit_length() + 7) // 8
        self.width = 8 * kb * n
        self.mask = (1 << self.width) - 1  # M
        self.shifts = [8 * kb * (n // q) for q in prime_factors(n)]

    def pack(self, num) -> int:
        """The ints num, numerators of an integral operand at conductor n,
        packed at this slot width; ValueError if one does not fit."""
        if max(map(abs, num), default=0) >> (8 * self.kb - 1):
            raise ValueError("zero test operand does not fit "
                             f"{self.kb}-byte slots")
        return _pack(num, self.kb)

    def fold(self, v: int) -> int:
        """v mod M, in 0..M (M itself is a zero residue)."""
        width, mask = self.width, self.mask
        while v >> width:
            v = (v & mask) + (v >> width)
        return v

    def times_binomials(self, v: int) -> int:
        """v h mod M, for a packed or folded v."""
        for s in self.shifts:
            v = (v << s) - v
        return self.fold(v)

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
        """Whether v is 0 mod M: D = 0 for v = (d h)(B) mod M."""
        v = self.fold(v)
        return not v or v == self.mask


def _reduce(n: int, raw: list[int]) -> list[int]:
    """Numerators of sum raw[e] x^e mod Phi_n, len(raw) < n + phi(n)."""
    phi, spread, step = _table(n)[:3]
    if len(raw) > n:  # x^n = 1 mod Phi_n: degree d >= n wraps onto d - n
        raw = list(map(add, raw, raw[n:])) + raw[len(raw) - n:n]
    cut = n - step  # fold degrees >= cut down first, as _table describes
    if cut < len(raw) <= n:  # the top step degrees, taken from each block
        top = raw[cut:] + [0] * (n - len(raw))
        raw = list(map(sub, raw, top * (cut // step)))
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
    def from_rational(cls, x, n: int = 1) -> "CycNum":
        """The rational x at conductor n."""
        x = x if isinstance(x, int) else _as_fraction(x)
        return cls._make(n, [x.numerator] + [0] * (_table(n)[0] - 1),
                         x.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {exponent: Fraction} view of the nonzero coefficients."""
        den = self.den
        return MappingProxyType(
            {e: Fraction(c, den) for e, c in enumerate(self.num) if c})

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

    def _scaled(self, p: int, q: int) -> "CycNum":
        """self p / q for q > 0: no product, no reduction."""
        return CycNum._make(self.n, [c * p for c in self.num], self.den * q)

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        a, b = (other, self) if self.is_rational() else (self, other)
        if b.is_rational():
            return a.embed(math.lcm(a.n, b.n))._scaled(b.num[0], b.den)
        a, b, m = a._common(b)
        phi = len(a.num)
        den = a.den * b.den
        nnz_a = phi - a.num.count(0)
        nnz_b = phi - b.num.count(0)
        if nnz_a * nnz_b <= phi:  # neither is rational, so neither is 0
            terms_a = [(i, x) for i, x in enumerate(a.num) if x]
            terms_b = [(j, y) for j, y in enumerate(b.num) if y]
            raw = [0] * (terms_a[-1][0] + terms_b[-1][0] + 1)
            for i, x in terms_a:
                for j, y in terms_b:
                    raw[i + j] += x * y
            return CycNum._make(m, _reduce(m, raw), den)
        l1 = sum(map(abs, a.num)) * sum(map(abs, b.num))  # >= |a b|_1
        kb = _slot_bytes(l1 * (1 + _table(m)[1]))
        f = _pack(a.num, kb) * _pack(b.num, kb)
        return CycNum._make(m, _reduce_packed(m, f, 2 * phi - 1, kb), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse: a rational's by Fraction arithmetic, else
        the product of the other Galois conjugates divided by the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycNum.from_rational(Fraction(self.den, self.num[0]),
                                        self.n)
        rest = self._other_conjugates()
        return rest * (self * rest).inverse()  # the norm is rational

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if self.is_rational():  # (a/d)^k = a^k/d^k, as __mul__ scales
            return CycNum._make(self.n, [self.num[0] ** k, *self.num[1:]],
                                self.den ** k)
        result = CycNum.from_rational(1, self.n)
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
        if self.is_rational() and other.is_rational():  # at any conductors
            return self.num[0] == other.num[0] and self.den == other.den
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
            return CycNum.from_rational(1, self.n)
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


class _PackedMatrix:
    """The k x c matrix rows[t][j] of CycNums: each distinct entry embedded
    at their lcm conductor n over one denominator L and normed, once;
    packed on first use at a slot width, by row (c blocks of phi(n) slots)
    and by column (k blocks of 2 phi(n) - 1, for products)."""

    def __init__(self, rows: list):
        distinct = {id(x): x for row in rows for x in row}
        n = math.lcm(*(x.n for x in distinct.values()))
        den = math.lcm(*map(_den, distinct.values()))
        ints = {i: [c * (den // x.den) for c in x.embed(n).num]
                for i, x in distinct.items()}
        self.rows, self.n, self.den = rows, n, den
        self._packs = {}  # width -> ints
        self.nums = [[ints[id(x)] for x in row] for row in rows]
        l1 = {i: sum(map(abs, v)) for i, v in ints.items()}
        inf = {i: max(map(abs, v)) for i, v in ints.items()}
        self.row_inf = [max(map(inf.get, map(id, row))) for row in rows]
        self.col_l1 = [max(map(l1.get, map(id, col))) for col in zip(*rows)]
        self.top = max(l1.values())

    def _packed(self, kb: int, columns: bool) -> list[int]:
        if (kb, columns) not in self._packs:
            pad = [0] * (_table(self.n)[0] - 1) if columns else []
            self._packs[kb, columns] = [
                _pack([c for v in line for c in (*v, *pad)], kb)
                for line in (zip(*self.nums) if columns else self.nums)]
        return self._packs[kb, columns]

    def dot(self, values: list, weights: list) -> list[CycNum]:
        """[sum_j weights[j] values[j] rows[t][j] for each row t] at the
        matrix's conductor, which must contain each value's, for int or
        Fraction weights and values of any denominator.  No slot of a row's
        block or its reduction exceeds sum_j |W_j| |A_j|_1 max_t |B_tj|_1
        (1 + spread), by `_table`."""
        n = self.n
        phi, spread = _table(n)[:2]
        wd = math.lcm(*map(_denominator, weights))
        vd = math.lcm(*map(_den, values))
        terms, bound = [], 0
        for j, (w, x) in enumerate(zip(weights, values)):
            w = w.numerator * (wd // w.denominator)
            if w and x and self.col_l1[j]:
                a = [c * (vd // x.den) for c in x.embed(n).num]
                terms.append((w, a, j))
                bound += abs(w) * sum(map(abs, a)) * self.col_l1[j]
        kb = _slot_bytes(max(self.top, bound * (1 + spread)))
        cols = self._packed(kb, True)
        f = sum(w * _pack(a, kb) * cols[j] for w, a, j in terms)
        blk, out, den = 2 * phi - 1, [], wd * vd * self.den
        for _ in self.rows:  # each row's block from the bottom, signed
            high = _high(f, blk, kb)
            block, f = f - (high << 8 * kb * blk), high
            num = _reduce_packed(n, block, blk, kb) if phi > 1 else [block]
            out.append(CycNum._make(n, num, den))
        return out

    def combine(self, coeffs: dict, den: int = 1) -> list[CycNum]:
        """[sum_t coeffs[t] rows[t][j] / den for each column j], den > 0:
        over the coefficients' denominator no slot exceeds sum_t |C_t|
        max_j |B_tj|_inf, and a combination of reduced numerators is
        reduced."""
        d = math.lcm(*map(_denominator, coeffs.values()))
        terms = [(c.numerator * (d // c.denominator), t)
                 for t, c in coeffs.items()]
        kb = _slot_bytes(max(self.top, sum(abs(c) * self.row_inf[t]
                                           for c, t in terms)))
        rows, phi = self._packed(kb, False), _table(self.n)[0]
        flat = _unpack(sum(c * rows[t] for c, t in terms),
                       len(self.col_l1) * phi, kb)
        return [CycNum._make(self.n, flat[i:i + phi], d * den * self.den)
                for i in range(0, len(flat), phi)]


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
    share one object, which `_PackedMatrix` embeds and norms once."""
    return CycNum(n, {k: 1})
