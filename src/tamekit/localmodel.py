"""Symbolic model of tame totally ramified extensions and their resolvends.

The model works with formal monomials pi^(a/m) in a uniformizer pi, with
coefficients in cyclotomic fields.  No identification pi^k = p is made:
every identity certified here is an exponent-level statement and stays
exact.  Two commuting-up-to-twist operators act:

    sigma:  pi^(a/m) -> zeta_m^a * pi^(a/m),   fixes all roots of unity
    phi_q:  zeta     -> zeta^q,                fixes all pi powers

so that phi_q . sigma = sigma^q . phi_q, the tame relation.

For s in G of order m the averaged ladders

    beta   = (1/m) sum_{i=0}^{m-1} pi^(i/m)
    beta*  = (1/m) sum_{i=0}^{m-1} pi^((i + (1-m)/2)/m)     (odd m)

give resolvends r = sum_i sigma^i(beta) s^(-i) on <s>, never stored: a
reader takes s and the ladder's start.  On <s>, chi's determinant is
prod_j F_j^mult_j, with the eigenfactors F_j = sum_i r[s^i] zeta_m^(ij);
r[s^i] = sigma^(-i)(ladder) depends on m and the ladder alone, and sigma
keeps the ladder's denominator D and exponents, so each ladder takes one
length-m DFT (one `dot` per exponent against the packed rows of
`cyclic_table(m)`), its rows read straight into monomials F_j = c_j
pi^(k_j/D) (`_ladder_monomials`), shared by every element of order m in
any group.  mult_j comes from chi (VirtualChar.multiplicity_sums at s):
Dixon's eigenvalue data for an irreducible, and for psi_2 chi the
decomposition `adams` computed, so the Adams identity stays a check
between two routes.  A determinant is one integer exponent sum sum_j
mult_j k_j over D and one coefficient product, and no TameElement is
multiplied or raised to a power.  The verifiers check that these
determinants are exactly the monomials predicted by the Stickelberger
pairings, that a Kummer generator's twisted orbit sums recover each basis
monomial, and that the change-of-basis determinant is a unit above the
chosen residue characteristic.  Twisted sums are exponent rotations of
the orbit's numerators, apart from the DFT and the stored eigenfactors,
so the two Kummer routes stay independent.  r^sigma = r s is checked by
such a rotation too, the orbit laid on G's powers of s and translated by
G's product, not by `sigma_action`, which built the orbit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import check_residue_size, is_prime, smallest_prime_in_class
from .characters import CharTable, VirtualChar, cyclic_table
from .cyclotomic import CycNum, _as_fraction, _folded, _reduce, zeta
from .groups import MAX_ORDER, FiniteGroup
from .padic import lambda_valuation
from .stickelberger import check_tame, pairing, star_pairing

_ONE = CycNum.from_rational(1)


class TameElement:
    """Finite sum of c * pi^e with e rational and c cyclotomic.

    Exponents are int numerators over one denominator per element, as in
    CycNum: `terms` maps a to the coefficient of pi^(a/den), with den > 0
    and gcd(den, *terms) = 1, so each exponent has exactly one key, and
    elements over different denominators meet at their lcm.  The verifiers
    multiply elements, which adds exponents, invert monomials and compare;
    there is no sum or scalar product.  Nothing collapses pi^k to a scalar,
    so equality of TameElements is equality of every coefficient.
    """

    __slots__ = ("terms", "den")

    @classmethod
    def _make(cls, terms: dict[int, CycNum], den: int) -> "TameElement":
        """sum of c * pi^(a/den) for nonzero CycNums c, with no coercion."""
        g = gcd(den, *terms)
        if g != 1:
            terms = {a // g: c for a, c in terms.items()}
            den //= g
        obj = object.__new__(cls)
        obj.terms, obj.den = terms, den
        return obj

    @classmethod
    def one(cls) -> "TameElement":
        return cls._make({0: _ONE}, 1)

    @classmethod
    def monomial(cls, exponent) -> "TameElement":
        """pi^exponent, for a rational exponent."""
        e = _as_fraction(exponent)
        return cls._make({e.numerator: _ONE}, e.denominator)

    def _over(self, den: int) -> dict[int, CycNum]:
        """terms rekeyed over den, a multiple of self.den."""
        k = den // self.den
        if k == 1:
            return self.terms
        return {a * k: c for a, c in self.terms.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TameElement):
            return NotImplemented
        if self.den != other.den or self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[a] for a, c in self.terms.items())

    __hash__ = None

    def __mul__(self, other) -> "TameElement":
        if not isinstance(other, TameElement):
            return NotImplemented
        den = lcm(self.den, other.den)
        right = other._over(den).items()
        out: dict[int, CycNum] = {}
        for a1, c1 in self._over(den).items():
            for a2, c2 in right:
                a = a1 + a2
                c = c1 * c2
                out[a] = out[a] + c if a in out else c
        return TameElement._make({a: c for a, c in out.items() if c}, den)

    def monomial_parts(self) -> tuple[Fraction, CycNum] | None:
        """(exponent, coefficient) when this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        [(a, c)] = self.terms.items()
        return Fraction(a, self.den), c

    def inverse(self) -> "TameElement":
        if not self.terms:
            raise ZeroDivisionError("zero is not invertible")
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the model")
        [(a, c)] = self.terms.items()
        return TameElement._make({-a: c.inverse()}, self.den)

    def to_dict(self) -> dict:
        return {"terms": [[str(Fraction(a, self.den)), c.to_dict()]
                          for a, c in sorted(self.terms.items())]}


def sigma_action(x: TameElement) -> TameElement:
    """pi^(a/D) -> zeta_D^a * pi^(a/D), D the element's denominator.

    Well defined on exponents: zeta_D^a depends only on the value a/D
    mod 1, not on the denominator it is written over.
    """
    D = x.den
    return x._make({a: c * zeta(D, a % D) for a, c in x.terms.items()}, D)


def frobenius_action(x: TameElement, q: int) -> TameElement:
    """Raise every coefficient root of unity to the q-th power."""
    return x._make({a: c.galois_apply(q) for a, c in x.terms.items()}, x.den)


@lru_cache(maxsize=None)
def _ladder_orbit(m: int, start: int) -> tuple[TameElement, ...]:
    """[sigma^i(ladder)] for i < m, the ladder (1/m) sum_{i<m}
    pi^((start + i)/m), kept per ladder."""
    orbit = [TameElement._make(dict.fromkeys(
        range(start, start + m), CycNum.from_rational(Fraction(1, m))), m)]
    for _ in range(m - 1):
        orbit.append(sigma_action(orbit[-1]))
    return tuple(orbit)


@lru_cache(maxsize=None)
def _ladder_monomials(m: int, start: int) -> tuple[int, tuple]:
    """(D, [(k_j, c_j) or None for each j]): the eigenfactors F_j = sum_i
    sigma^(-i)(ladder) zeta_m^(ij) along any s of order m, F_j = c_j
    pi^(k_j/D) over the ladder's denominator D, None where F_j is not a
    single term.  sigma keeps D and the exponents, so the DFT is one `dot`
    per exponent a, of its coefficients against the packed rows
    zeta_m^(ij) of `cyclic_table(m)`."""
    orbit = _ladder_orbit(m, start)
    table = cyclic_table(m)
    sums = [(a, table.packed.dot([orbit[-i % m].terms[a] for i in range(m)],
                                 table.sizes)) for a in orbit[0].terms]
    rows = ([(a, f[j]) for a, f in sums if f[j]] for j in range(m))
    return orbit[0].den, tuple(row[0] if len(row) == 1 else None
                               for row in rows)


def infer_q(G: FiniteGroup, s: int, t: int = 0) -> int:
    """Smallest prime q compatible with t s t^-1 = s^q; ValueError unless
    `check_tame(G, s, None, t)` passes."""
    m = check_tame(G, s, None, t)
    c = G.conjugate(t, s)
    return smallest_prime_in_class(
        next(k for k in range(m) if G.power(s, k) == c), m)


def det_resolvend(chi: VirtualChar, s: int, start: int) -> TameElement:
    """Determinant of chi's representation on the resolvend r of the
    ladder (1/m) sum_{i<m} pi^((start + i)/m) along s, m = |s|.

    r is supported on H = <s>, where the representation diagonalizes: the
    linear character xi_j of H with xi_j(s) = zeta_m^j contributes the
    eigenfactor F_j = sum_h r[h] xi_j(h) with multiplicity (chi|_H, xi_j),
    and the determinant is prod_j F_j^mult_j.  The F_j depend on m and the
    ladder alone, c_j pi^(k_j/D) in `_ladder_monomials`: the product is
    pi^(sum_j mult_j k_j / D) times prod_j c_j^mult_j.  The multiplicities
    are chi's own, so psi_2 chi brings those `adams` found and the Adams
    identity stays a check between two routes.  ValueError, naming the
    row, for a non-integral multiplicity or a non-monomial F_j of nonzero
    multiplicity, which only a broken DFT gives.
    """
    acc, den = chi.multiplicity_sums(s)
    D, factors = _ladder_monomials(len(acc), start)
    exponent, coeff = 0, _ONE
    for j, a in enumerate(acc):
        mult, rest = divmod(a, den)
        if rest:
            raise ValueError(f"non-integral multiplicity {Fraction(a, den)} "
                             f"at row {j}")
        if mult == 0:
            continue
        if factors[j] is None:
            raise ValueError(f"eigenfactor for row {j} is not a monomial")
        k, c = factors[j]
        exponent += mult * k
        coeff = coeff * c ** mult
    return TameElement._make({exponent: coeff}, D)


def _det_via_elimination(rows: list[list[CycNum]]) -> CycNum:
    # plain Gaussian elimination over the cyclotomic field
    n = len(rows)
    mat = [list(r) for r in rows]
    det = CycNum.from_rational(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c]), None)
        if piv is None:
            return CycNum.from_rational(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c]
        inv = mat[c][c].inverse()
        for r in range(c + 1, n):
            if mat[r][c]:
                f = -(mat[r][c] * inv)
                mat[r] = [a + f * b for a, b in zip(mat[r], mat[c])]
    return det


def _twisted_sum(orbit: list[TameElement], t: int) -> TameElement:
    """sum_j orbit[j] zeta_e^(t j), e = len(orbit), coefficients at
    conductors dividing e: each coefficient rotates the orbit's integer
    numerators by t j slots at conductor e, adds them over one common
    denominator and is reduced once, with no CycNum product."""
    e, den = len(orbit), lcm(*(x.den for x in orbit))
    lcd = lcm(*(c.den for x in orbit for c in x.terms.values()))
    pairs: dict[int, list[tuple[int, int]]] = {}
    for j, x in enumerate(orbit):
        for a, c in x._over(den).items():
            k, scale = e // c.n, lcd // c.den
            pairs.setdefault(a, []).extend(
                (i * k + t * j, v * scale) for i, v in enumerate(c.num))
    terms = {a: CycNum._make(e, _reduce(e, _folded(e, p)), lcd)
             for a, p in pairs.items()}
    return TameElement._make({a: c for a, c in terms.items() if c}, den)


def _sigma_equivariant(G: FiniteGroup, s: int, start: int) -> bool:
    """Whether sigma(r[g]) = r[g s^-1] in G for each g in <s>, r[s^-i] =
    sigma^i(ladder) for the ladder from start: each term c pi^(a/D) of r[g]
    twisted to c zeta_D^a by rotating c's numerators a slots at conductor
    lcm(D, c.n), with no product and no `sigma_action`."""
    powers = G.cyclic_subgroup(s)
    orbit = _ladder_orbit(len(powers), start)
    r = {g: orbit[-i] for i, g in enumerate(powers)}
    s_inv = G.power(s, -1)
    for g, x in r.items():
        y = r.get(G.mul(g, s_inv))
        if y is None or y.den != x.den or y.terms.keys() != x.terms.keys():
            return False
        for a, c in x.terms.items():
            n = lcm(x.den, c.n)
            k, t = n // c.n, a * (n // x.den)
            raw = _folded(n, ((i * k + t, v) for i, v in enumerate(c.num)
                              if v))
            if CycNum._make(n, _reduce(n, raw), c.den) != y.terms[a]:
                return False
    return True


def check_window(e: int, n: int, q: int | None) -> None:
    """ValueError unless e is in 1..MAX_ORDER, the window offset n has
    |n| < e, and q, if given, is a prime = 1 mod e up to MAX_RESIDUE."""
    if not 1 <= e <= MAX_ORDER:
        raise ValueError(f"order e = {e} must be in 1..{MAX_ORDER}")
    if abs(n) >= e:
        raise ValueError(f"window offset {n} out of range for |s| = {e}")
    if q is not None:
        check_residue_size(q, e)
        if not is_prime(q) or (q - 1) % e:
            raise ValueError(f"the window needs q = {q} to be a prime "
                             f"= 1 mod |s| = {e}")


def verify_kummer_generator(e: int, n: int, q: int | None = None) -> dict:
    """Certify that alpha = (1/e) sum_i pi^((n+i)/e) generates freely.

    Two independent routes per linear character: the twisted orbit sum
    sum_j sigma^j(alpha) zeta_e^(-(n+l)j), an exponent rotation of the
    orbit's numerators (`_twisted_sum`), must equal the single monomial
    pi^((n+l)/e), and the determinant route through det_resolvend must
    land on the same monomial.  The e x e matrix taking the sigma-orbit
    of alpha to the monomial basis must in addition have determinant a
    unit above q, checked by exact lambda-adic valuation; q must be a
    prime = 1 mod e, so that Q(zeta_e) embeds in Z_q[lambda].  Raises
    ValueError unless `check_window(e, n, q)` passes; q defaults to the
    least such prime.
    """
    check_window(e, n, q)
    if q is None:
        q = smallest_prime_in_class(1, e)

    ctab = cyclic_table(e)
    orbit = _ladder_orbit(e, n)  # sigma^j(alpha)

    checks = []
    for l in range(e):
        target = TameElement.monomial(Fraction(n + l, e))
        twisted = _twisted_sum(orbit, -(n + l))
        chi = VirtualChar.irreducible(ctab, (n + l) % e)
        det_route = det_resolvend(chi, 1 % e, n)  # alpha's resolvend
        ok = twisted == target and det_route == target
        checks.append({
            "offset": l,
            "target_exponent": str(Fraction(n + l, e)),
            "twisted_sum": twisted == target,
            "det_route": det_route == target,
            "pass": ok,
        })

    # coefficient of pi^((n+i)/e) inside sigma^j(alpha): sigma keeps alpha's
    # denominator e and its e nonzero terms, so that is the key n + i
    mat = [[orbit[j].terms[n + i] for i in range(e)] for j in range(e)]
    det = _det_via_elimination(mat)
    val = lambda_valuation(det, q) if det else None
    unit = {
        "q": q,
        "nonzero": bool(det),
        "lambda_valuation": val,
        "pass": bool(det) and val == 0,
    }
    return {
        "suite": "kummer-generator",
        "e": e,
        "n": n,
        "q": q,
        "checks": checks,
        "unit_determinant": unit,
        "pass": all(c["pass"] for c in checks) and unit["pass"],
    }


def verify_factorization(G: FiniteGroup, s: int, t: int | None = None,
                         q: int | None = None) -> dict:
    """Check the determinant factorization package for one odd-order s.

    Per irreducible chi: det of the plain resolvend is pi^<chi,s>, det of
    the centered resolvend is pi^<chi,s>*, and the ratio obeys the second
    Adams operation identity

        D*(chi) D(chi)^-1 = D(psi2 chi) D(chi)^-2 = pi^<psi2 chi - 2chi, s>.

    Also checks r^sigma = r.s for both resolvends by rotating numerators
    (`_sigma_equivariant`), not by `sigma_action`, which built them.
    t defaults to the identity and q to `infer_q(G, s, t)`.  Raises
    ValueError unless `check_tame(G, s, q, t)` passes, before anything
    is computed.
    """
    if t is None:
        t = 0
    if q is None:
        q = infer_q(G, s, t)
    m = check_tame(G, s, q, t)
    table = CharTable.of(G)

    star = (1 - m) // 2
    equivariance = {
        "plain": _sigma_equivariant(G, s, 0),
        "star": _sigma_equivariant(G, s, star),
    }

    checks = []
    for i in range(table.k):
        chi = VirtualChar.irreducible(table, i)
        psi2 = chi.adams(2)
        d = det_resolvend(chi, s, 0)
        d_star = det_resolvend(chi, s, star)
        p_plain = pairing(chi, s)
        p_star = star_pairing(chi, s)
        f_exp = pairing(psi2 - chi - chi, s)
        d_inv = d.inverse()
        ratio = d_star * d_inv
        ok_a = d == TameElement.monomial(p_plain)
        ok_b = d_star == TameElement.monomial(p_star)
        ok_c = ratio == det_resolvend(psi2, s, 0) * d_inv * d_inv
        ok_f = ratio == TameElement.monomial(f_exp) and f_exp == p_star - p_plain
        checks.append({
            "chi": i,
            "degree": int(table.degrees[i]),
            "det_exponent": str(p_plain),
            "det_star_exponent": str(p_star),
            "plain_matches_pairing": ok_a,
            "star_matches_pairing": ok_b,
            "adams_ratio": ok_c,
            "f_exponent": str(f_exp),
            "f_matches": ok_f,
            "pass": ok_a and ok_b and ok_c and ok_f,
        })
    return {
        "suite": "factorization",
        "group": G.label,
        "element": G.names[s],
        "element_order": m,
        "t": G.names[t],
        "q": q,
        "equivariance": equivariance,
        "checks": checks,
        "pass": all(equivariance.values()) and all(c["pass"] for c in checks),
    }
