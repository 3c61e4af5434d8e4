"""Multiplicative characters mod p, Gauss and Jacobi sums, and J*.

All sums are exact cyclotomic numbers.  The conventions:

    tau(chi)  = sum_{x in F_p^*} chi(x)^-1 zeta_p^x     (nontrivial chi)
    tau(1)    = 1                                       (convention)
    J(c1,c2)  = sum_{x != 0,1} c1(x)^-1 c2(1-x)^-1
    J*(chi)   = tau(chi^2) tau(chi)^-2

With the inverse placed on chi the classical relations read

    tau(chi) tau(chi^-1)              = chi(-1) p
    J(c1,c2) tau(c1 c2)               = tau(c1) tau(c2)
    tau(chi) galois_apply(tau(chi),-1) = p

and the last one supplies tau^-1 without any division: the inverse is the
(-1)-conjugate times 1/p.  J* always descends to the prime-to-p part
of its conductor; j_star returns it there, which both certifies the
descent and keeps norms cheap.

The identity sweep embeds every tau at conductor N = p(p-1) and checks
each relation as one exact zero test of D = J tau_c - tau_a tau_b
(`cyclotomic._ZeroTest`): D h vanishes modulo x^N - 1, for
h = prod_{q | N} (x^(N/q) - 1), on packed ints modulo 2^(8 kb N) - 1.
The slots are sized from the definitions alone: tau sums p - 1 roots of
unity and J p - 2, so |sigma(D)| <= (p - 1)(2p - 3) in every embedding
sigma, 2 bytes for every p <= PRIME_CAP; nothing uses |tau|^2 = p, which
the sweep verifies.  tau_c h is formed once per character, and
tau(chi_a) tau(chi_b) h once per unordered pair, shared by both orders,
while J(chi_a, chi_b) is summed from its definition for each ordered pair
when the pair is tested, at its own conductor L: its terms shift tau_c h
by e N/L slots, so J tau_c needs no full-width product.  Both orders are
thus checked against independent left-hand sides, and nothing uses the
substitution that proves the identity.  The tau checks tau_a tau_(-a) = (-1)^a p go
through the same test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import is_prime, primitive_root
from .cyclotomic import CycNum, _reduce, _ZeroTest

PRIME_CAP = 101


def check_modulus(p: int, d: int) -> None:
    """ValueError unless p is a prime up to PRIME_CAP and d a positive
    divisor of p - 1, the order of a character family mod p."""
    if not (p <= PRIME_CAP and is_prime(p)):
        raise ValueError(f"{p} is not a prime up to {PRIME_CAP}")
    if d < 1 or (p - 1) % d:
        raise ValueError(f"order {d} does not divide {p} - 1")


@lru_cache(maxsize=None)
def _dlog(p: int) -> tuple[int, ...]:
    """Discrete logs base the smallest primitive root; index -1 at 0."""
    g = primitive_root(p)
    table = [-1] * p
    acc = 1
    for k in range(p - 1):
        table[acc] = k
        acc = acc * g % p
    return tuple(table)


class MultChar:
    """Character of F_p^* sending the smallest primitive root to zeta_d^a."""

    __slots__ = ("p", "d", "a")

    def __init__(self, p: int, d: int, a: int):
        check_modulus(p, d)
        self.p = p
        self.d = d
        self.a = a % d

    @property
    def is_trivial(self) -> bool:
        return self.a == 0

    @property
    def order(self) -> int:
        return self.d // gcd(self.a, self.d)

    def reduced(self) -> tuple[int, int]:
        """(order, exponent) with the exponent coprime to the order."""
        g = gcd(self.a, self.d)
        return self.d // g, (self.a // g) % (self.d // g)

    def __mul__(self, other: "MultChar") -> "MultChar":
        if not isinstance(other, MultChar):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("characters of different primes")
        d = lcm(self.d, other.d)  # divides p - 1, as both orders do,
        chi = object.__new__(MultChar)  # so check_modulus is not rerun
        chi.p, chi.d = self.p, d
        chi.a = (self.a * (d // self.d) + other.a * (d // other.d)) % d
        return chi

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultChar):
            return NotImplemented
        return self.p == other.p and self.reduced() == other.reduced()

    def __hash__(self):
        return hash((self.p, self.reduced()))


def _gauss_terms(chi: MultChar, sign: int) -> CycNum:
    """sum_{x in F_p^*} chi(x)^-sign zeta_p^(sign x), chi nontrivial: tau
    for sign 1, its conjugate for -1.  At conductor N = p d, zeta_p = Z^d
    and zeta_d = Z^p, so the p - 1 terms never collide (x mod p is kept)."""
    p = chi.p
    d, a = chi.reduced()
    dlog = _dlog(p)
    return CycNum(p * d, {sign * (x * d + p * (-a * dlog[x] % d)) % (p * d): 1
                          for x in range(1, p)})


def gauss_sum(chi: MultChar) -> CycNum:
    """tau(chi) as an exact element of Q(zeta_{p d}); tau(1) = 1."""
    if chi.is_trivial:
        return CycNum.from_rational(1)
    return _gauss_terms(chi, 1)


def jacobi_sum(chi1: MultChar, chi2: MultChar) -> CycNum:
    """J(chi1, chi2) in Q(zeta_d); rejects pairs where a factor or the
    product is trivial (those degenerate to Gauss-sum conventions), and
    through the product, pairs of characters at different primes."""
    if chi1.is_trivial or chi2.is_trivial or (chi1 * chi2).is_trivial:
        raise ValueError("degenerate character pair")
    p = chi1.p
    d1, a1 = chi1.reduced()
    d2, a2 = chi2.reduced()
    L = lcm(d1, d2)
    m1, m2 = a1 * (L // d1), a2 * (L // d2)
    dlog = _dlog(p)  # dlog[1 - x] is dlog[p + 1 - x]
    raw = [0] * L
    for x in range(2, p):
        raw[(-m1 * dlog[x] - m2 * dlog[1 - x]) % L] += 1
    return CycNum._make(L, _reduce(L, raw), 1)


def tau_inverse(chi: MultChar) -> CycNum:
    """tau(chi)^-1 = galois_apply(tau(chi), -1) / p for nontrivial chi,
    the conjugate summed from its definition: one reduction."""
    if chi.is_trivial:
        return CycNum.from_rational(1)
    return _gauss_terms(chi, -1) * Fraction(1, chi.p)


@lru_cache(maxsize=None)
def j_star(chi: MultChar) -> CycNum:
    """tau(chi^2) tau(chi)^-2, returned at its prime-to-p conductor.  Cached:
    it reads chi through p and reduced() alone, as MultChar's hash does."""
    if chi.is_trivial:
        return CycNum.from_rational(1)
    inv = tau_inverse(chi)
    out = gauss_sum(chi * chi) * inv * inv
    m = out.n
    while m % chi.p == 0:
        m //= chi.p
    return out.shrink_to(m)


def _pure_power(x: int, p: int) -> bool:
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def verify_ell_unit(J: CycNum, p: int) -> dict:
    """Check the absolute norm of J is, up to sign, a power of p.

    A power of p includes p^0, so units pass; any other prime factor in
    the norm fails the check.
    """
    norm = J.norm()
    ok = bool(norm) and _pure_power(abs(norm.numerator), p) \
        and _pure_power(norm.denominator, p)
    return {
        "suite": "ell-unit",
        "p": p,
        "conductor": J.n,
        "norm": str(norm),
        "pass": ok,
    }


def verify_gauss_identities(p: int) -> dict:
    """Exhaustive tau and Jacobi identity sweep for one prime.

    Characters are indexed by a in 1..p-2 (all nontrivial characters of
    F_p^*, realized at full order d = p-1).  Checks, exactly:

        tau(chi_a) tau(chi_a^-1) = (-1)^a p          for every a
        J(chi_a, chi_b) tau(chi_a chi_b) = tau(chi_a) tau(chi_b)
                                    for every pair with a + b != 0 mod p-1

    Each is a zero test of lhs - rhs, bounded from the definitions as the
    module docstring describes (the tau checks add p), and each J is
    summed when its pair is tested.  Raises ValueError unless
    `check_modulus(p, p - 1)` passes.
    """
    check_modulus(p, p - 1)
    d = p - 1
    N = p * d
    chars = [MultChar(p, d, a) for a in range(d)]
    test = _ZeroTest(N, (p - 1) * (2 * p - 3) + p)
    packed = [test.pack(gauss_sum(chi).embed(N).num) for chi in chars]
    tau_h = list(map(test.times_binomials, packed))  # tau_c h; tau_h[0] = h

    tau_pass = {}
    pair_count = 0
    failures = []
    for a in range(1, d):
        for b in range(a, d):
            product = test.times_binomials(packed[a] * packed[b])
            c = (a + b) % d
            if not c:
                sign = -1 if a % 2 else 1
                tau_pass[a] = tau_pass[b] = test.is_zero(
                    product - sign * p * tau_h[0])
                continue
            for x, y in {(a, b), (b, a)}:
                pair_count += 1
                J = jacobi_sum(chars[x], chars[y])
                if not test.is_zero(test.rotations(J, tau_h[c]) - product):
                    failures.append([x, y])
    tau_checks = [{"a": a, "chi_minus_one": -1 if a % 2 else 1,
                   "pass": tau_pass[a]} for a in range(1, d)]
    failures.sort()
    return {
        "suite": "gauss-identities",
        "p": p,
        "characters": d - 1,
        "tau_checks": tau_checks,
        "jacobi_pairs": pair_count,
        "jacobi_failures": failures,
        "pass": all(c["pass"] for c in tau_checks) and not failures,
    }


def verify_jstar(p: int, d: int | None = None) -> dict:
    """J* sweep for the order-d character family at p.

    Per nontrivial character: absolute norm is a signed power of p,
    Galois conjugation by k matches re-indexing chi -> chi^k for every k
    coprime to the reduced conductor, and for characters of order > 2 the
    value inverts the plain Jacobi sum J(chi, chi).
    """
    if d is None:
        d = p - 1
    chars = [MultChar(p, d, a) for a in range(d)]
    values = {a: j_star(chars[a]) for a in range(d)}
    checks = []
    for a in range(1, d):
        chi = chars[a]
        J = values[a]
        unit = verify_ell_unit(J, p)
        equi = all(
            J.galois_apply(k) == values[a * k % d]
            for k in range(1, max(J.n, 2)) if gcd(k, J.n) == 1)
        if chi.order > 2:
            cross = J * jacobi_sum(chi, chi) == CycNum.from_rational(1)
        else:
            cross = None
        checks.append({
            "a": a,
            "order": chi.order,
            "conductor": J.n,
            "norm": unit["norm"],
            "unit_pass": unit["pass"],
            "equivariance_pass": equi,
            "jacobi_inverse_pass": cross,
            "pass": unit["pass"] and equi and cross is not False,
        })
    return {
        "suite": "jstar",
        "p": p,
        "d": d,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
