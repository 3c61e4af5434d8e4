"""Exact character tables and virtual characters.

Tables are computed by Dixon's modular method: the class-sum multiplication
matrices are simultaneously diagonalized over F_ell for a prime
ell = 1 mod exp(G) with ell > 2|G|, degrees are recovered from the column
orthogonality relation mod ell, and each character value is lifted exactly
as chi(g) = sum_u m_u zeta_m^u where the eigenvalue multiplicities m_u are
small non-negative integers read off mod ell.  The eigenvalues of a
combination C of the class matrices are the roots of its characteristic
polynomial p mod ell (Hessenberg form, then the usual recurrence), found
by evaluating it at the ell points of F_ell; when there are k distinct
roots each eigenspace is one-dimensional (Dixon, Numer. Math. 10, 1967;
Schneider, J. Symbolic Comput. 9, 1990).  Its vectors come from one
Krylov sequence C^i e_0, i < k, e_0 the identity class: for a root lam,
(p / (x - lam))(C) e_0 is killed by C - lam (Cayley-Hamilton) and is not
zero, since e_0 is the sum of the primitive idempotents of the class
algebra.  That is O(k^3) in all, with no elimination per root.  The class
matrices commute (class sums are central), so every class matrix
preserves each of these eigenspaces: their vectors are common
eigenvectors without a recheck, and the eigenvalue omega_j is read from
one row of M_j.  The lift takes one m-point DFT per character for one
class of generators of each cyclic subgroup <g>, with one table of
z_m^(-uv) per element order m, built once per table; the classes of the
other generators g^a, gcd(a, m) = 1, read the same multiplicities
permuted, m_(u a)(g^a) = m_u(g); each distinct value is built once and
shared.  The lifted table is then certified against both orthogonality
relations and sum(d^2) = |G| exactly, so nothing downstream depends on the
modular step: `certify` tests each of its 2 k^2 sums for zero with one
`cyclotomic._ZeroTest`, each distinct value packed once for all of them.
The table keeps m_u as eigen[t][j][u] (g = reps[j], m = |g|), the
coefficient of xi^u, xi(g) = zeta_m, in chi_t restricted to <g>.  Reducing
Z[zeta_e] -> F_ell sends each lifted value to chi mod ell, so the true m_u
are congruent to the lifted ones mod ell; both lie in [0, d] with d < ell,
so the lifted m_u are exact once the table certifies.

A VirtualChar stores its values on the classes once, so `value` is a
lookup: an irreducible's are its table row, `from_values` keeps the input
it has decomposed and checked, and any other (`+`, `-`, `scale`, ...) sums
them from its coefficients once, on first use.  The projections and the
reproduction check of `from_values` and the sums from coefficients run
on the same kernel; `inner` reads the coefficients alone, since the
irreducibles are orthonormal.  The work that does not depend on a group
element is done once per table: the table keeps its class layout
(representatives, sizes, the class of each element, inverse classes and
the weights |C_j|/|G| that every character sum reads); `adams` keeps
each decomposition of psi_k chi on the table, keyed by chi's
coefficients and k; and `induce` counts the elements of H by their class
in G and in H, one weighted sum per class of G, instead of conjugating
by every element of G.

Table values are stored as CycNum at conductor exp(G).  Irreducibles are sorted by
(degree, lexicographic serialized values), except that tables built for a
cyclic group with a designated generator s keep the power order
xi^0, xi^1, ..., xi^{m-1} with xi(s^i) = zeta_m^i; `cyclic_table` keeps one
such table per order m, on the preset C_m, for every cyclic subgroup of
that order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .arith import is_prime, primitive_root
from .cyclotomic import CycNum, _ZeroTest, _as_fraction, _dot, zeta
from .groups import FiniteGroup, Subgroup, preset


# -- linear algebra over F_ell ----------------------------------------------

def _charpoly(mat: list[list[int]], ell: int) -> list[int]:
    """det(x I - mat) mod ell, coefficients from the constant term up.

    The matrix is brought to upper Hessenberg form h by similarities
    (row_i -= f row_(c+1), then col_(c+1) += f col_i); the polynomial p_m of
    its leading m x m block then satisfies
    p_(m+1) = (x - h[m][m]) p_m
              - sum_i h[m-i][m] h[m][m-1] ... h[m-i+1][m-i] p_(m-i)
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9)."""
    k = len(mat)
    h = [[x % ell for x in row] for row in mat]
    for c in range(k - 2):
        piv = next((i for i in range(c + 1, k) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top = h[c + 1]
        inv = pow(top[c], -1, ell)
        fs = [h[i][c] * inv % ell for i in range(c + 2, k)]
        for i, f in enumerate(fs, c + 2):
            if f:
                h[i] = [(x - f * y) % ell for x, y in zip(h[i], top)]
        for row in h:
            row[c + 1] = (row[c + 1] + sum(map(mul, fs, row[c + 2:]))) % ell
    polys = [[1]]
    for m in range(k):
        p = [0] + polys[m]
        for d, a in enumerate(polys[m]):
            p[d] -= h[m][m] * a
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % ell
            if not t:
                break
            f = h[m - i][m] * t
            for d, a in enumerate(polys[m - i]):
                p[d] -= f * a
        polys.append([a % ell for a in p])
    return polys[k]


def _class_matrices(G: FiniteGroup, classes: list[list[int]],
                    ell: int) -> list[list[list[int]]]:
    """mats[j]: multiplication by class sum j in the class-sum basis, mod
    ell, as rows: mats[j][kk][i] is the coefficient of class sum kk in
    (class sum j)(class sum i)."""
    k = len(classes)
    rep_slot = {cl[0]: j for j, cl in enumerate(classes)}
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for j in range(k):
        for x in classes[j]:
            row = G.table[x]
            for i in range(k):
                for y in classes[i]:
                    slot = rep_slot.get(row[y])
                    if slot is not None:
                        a[j][i][slot] += 1
    return [[[a[j][i][kk] % ell for i in range(k)] for kk in range(k)]
            for j in range(k)]


def _multiplicities(powers: list[int], minv: int, rows: list[list[int]],
                    ell: int, d: int) -> tuple[int, ...]:
    """mu_u = (1/m) sum_v chi(g^v) z_m^(-u v) mod ell, for powers[v] =
    chi(g^v) mod ell and rows[u][v] = z_m^(-u v): the eigenvalue
    multiplicities of a degree-d character on g, which lie in [0, d] and
    sum to d."""
    mu = tuple(minv * sum(map(mul, powers, row)) % ell for row in rows)
    if max(mu) > d:
        raise ArithmeticError("eigenvalue multiplicity lift failed")
    if sum(mu) != d:
        raise ArithmeticError("multiplicities do not sum to degree")
    return mu


def _dixon_prime(exponent: int, order: int) -> int:
    ell = 2 * order + 1
    ell += (1 - ell) % exponent
    while True:
        if is_prime(ell):
            return ell
        ell += exponent


# -- the table ---------------------------------------------------------------

class CharTable:
    """Certified-exact irreducible character table of a finite group."""

    def __init__(self, group: FiniteGroup, classes: list[list[int]],
                 values: list[list[CycNum]], degrees: list[int],
                 eigen: list[list[tuple[int, ...]]]):
        self.group = group
        self.classes = classes
        self.k = len(classes)
        (self.reps, self.sizes, self.class_of, self.inverse,
         self.weights) = _layout(group, classes)
        self.exponent = group.exponent()
        self.values = values
        self.degrees = degrees
        self.eigen = eigen
        # certify() report of a table built by Dixon's method, kept so that
        # callers read it instead of recertifying the same table.
        self.certification: dict | None = None
        # VirtualChar.adams results, keyed by (coefficients, k)
        self.adams_cache: dict = {}

    # construction ----------------------------------------------------------

    @classmethod
    def of(cls, group: FiniteGroup) -> "CharTable":
        """The table, computed once per group and cached on it."""
        cached = getattr(group, "_char_table", None)
        if cached is None:
            cached = cls._dixon(group)
            group._char_table = cached
        return cached

    @classmethod
    def cyclic(cls, group: FiniteGroup, gen: int) -> "CharTable":
        """Table of a cyclic group with designated generator, rows in power
        order: row j is xi^j with xi(gen^i) = zeta_m^i."""
        m = group.element_order(gen)
        if m != group.n:
            raise ValueError("designated element does not generate the group")
        classes = [[i] for i in range(group.n)]
        class_of_power = [0] * m
        x = 0
        for i in range(m):
            class_of_power[i] = x
            x = group.table[x][gen]
        values = [[None] * m for _ in range(m)]
        eigen = [[None] * m for _ in range(m)]
        for j in range(m):
            for i in range(m):
                g = math.gcd(i, m)  # xi^j(gen^i) = zeta_(m/g)^((i/g) j)
                values[j][class_of_power[i]] = zeta(m, i * j % m)
                eigen[j][class_of_power[i]] = tuple(
                    int(u == (i // g) * j % (m // g)) for u in range(m // g))
        return cls(group, classes, values, [1] * m, eigen)

    @classmethod
    def _dixon(cls, group: FiniteGroup) -> "CharTable":
        """Dixon's method; `certify` makes `eigen` exact (module docstring)."""
        G = group
        n = G.n
        classes = G.conjugacy_classes()
        k = len(classes)
        reps, sizes, class_of, inv_class, _ = _layout(G, classes)
        e = G.exponent()
        ell = _dixon_prime(e, n)

        mats = _class_matrices(G, classes, ell)
        vecs = cls._simultaneous_eigenvectors(mats, ell, k)

        inv_sizes = [pow(s, -1, ell) for s in sizes]
        z_e = pow(primitive_root(ell), (ell - 1) // e, ell)

        rows = []
        for v in vecs:
            # v is an eigenvector of every M_j, so omega_j = (M_j v)_idx / v_idx
            idx = next(i for i in range(k) if v[i])
            v_inv = pow(v[idx], -1, ell)
            omega = [sum(map(mul, M[idx], v)) * v_inv % ell for M in mats]
            s = sum(om * omega[inv_class[j]] * inv_sizes[j]
                    for j, om in enumerate(omega)) % ell
            dsq = (n * pow(s, -1, ell)) % ell
            d = next((t for t in range(1, math.isqrt(n) + 1)
                      if (t * t) % ell == dsq), None)
            if d is None:
                raise ArithmeticError("degree not recovered mod ell")
            chi_mod = [(d * om * inv_sizes[j]) % ell
                       for j, om in enumerate(omega)]
            rows.append((d, chi_mod))

        # The lift: one m-point DFT per character for one class of
        # generators g = reps[j] of each cyclic subgroup <g>, m = |g|.  The
        # class of g^a, gcd(a, m) = 1, reads mu(g^a)_(u a mod m) = mu(g)_u,
        # as xi^u(g^a) = zeta_m^(u a).  source[c] = (j, b): class c is that
        # of g^a for b = a^-1 mod m, so its mu_w is mu(g)_(w b mod m).
        orders = [G.element_order(g) for g in reps]
        source = [None] * k
        power_classes = {}  # generator class j -> classes of g^v, v < m
        for j, m in enumerate(orders):
            if source[j] is None:
                power_classes[j] = [class_of[G.power(reps[j], v)]
                                    for v in range(m)]
                for a, c in enumerate(power_classes[j]):
                    if source[c] is None and math.gcd(a, m) == 1:
                        source[c] = j, pow(a, -1, m)
        dft = {}  # m -> (1/m, the rows (z_m^(-u v))_v)
        for m in set(orders):
            z_inv = pow(z_e, -(e // m), ell)
            table = [pow(z_inv, w, ell) for w in range(m)]
            dft[m] = (pow(m, -1, ell),
                      [[table[u * v % m] for v in range(m)] for u in range(m)])

        built = {}  # mu -> (its value at exp(G), sort key), one per table
        lifts = []  # (degree, sort key, values, multiplicities) per character
        for d, chi_mod in rows:
            lifted = {j: _multiplicities([chi_mod[c] for c in cs],
                                         *dft[orders[j]], ell, d)
                      for j, cs in power_classes.items()}
            mults = []
            for j, b in source:
                mu, m = lifted[j], orders[j]
                mults.append(mu if b == 1 else
                             tuple(mu[w * b % m] for w in range(m)))
            for mu in mults:
                if mu not in built:
                    v = CycNum(e, {u * (e // len(mu)): x
                                   for u, x in enumerate(mu) if x})
                    built[mu] = v, tuple((i, c) for i, c in enumerate(v.num)
                                         if c)
            row = [built[mu] for mu in mults]
            lifts.append((d, tuple(key for _, key in row),
                          [v for v, _ in row], mults))
        lifts.sort(key=lambda r: r[:2])

        table = cls(group, classes, [r[2] for r in lifts],
                    [r[0] for r in lifts], [r[3] for r in lifts])
        report = table.certify()
        if not report["pass"]:
            raise ArithmeticError(f"character table failed certification: {report}")
        table.certification = report
        return table

    @staticmethod
    def _simultaneous_eigenvectors(mats, ell, k):
        """k common eigenvectors of the class matrices mod ell, mats[0]
        being the identity class's.

        Tries combinations C = sum_j t^j M_j until C has k distinct
        eigenvalues and returns an eigenvector for each, in increasing
        order of the eigenvalue.  The eigenvalues are the roots of C's
        characteristic polynomial p (`_charpoly`), found by evaluating it at
        the ell points of F_ell; C is rejected when there are fewer than k.
        The eigenvectors come from one Krylov sequence K_i = C^i e_0, i < k,
        where e_0 is the identity class, the unit of the class algebra: for
        a root lam, q = p / (x - lam) by synthetic division and
        v = q(C) e_0 = sum_i q_i K_i, so (C - lam) v = p(C) e_0 = 0 by
        Cayley-Hamilton.  v is not zero: e_0 is the sum of the primitive
        idempotents of the algebra, C acts on each by one of its k distinct
        eigenvalues, so v = q(lam) e_lam = p'(lam) e_lam for the idempotent
        e_lam of lam, and p'(lam) != 0 at a simple root; a zero v raises.
        That is k mat-vecs and O(k^2) per root.  Class sums are central, so
        the M_j commute with each other and with C: for C v = lam v,
        C (M_j v) = lam M_j v, so M_j v lies in the eigenspace of lam, which
        is one-dimensional as lam is simple.  Each vector is therefore an
        eigenvector of every M_j without a recheck; `certify` is the exact
        backstop for the whole table.  t and t + ell give the same C, so at
        most min(200, ell) - 1 combinations are tried."""
        for t in range(1, min(200, ell)):
            comb = [[0] * k for _ in range(k)]
            scale = 1
            for M in mats:
                comb = [[(a + scale * b) % ell for a, b in zip(cr, mr)]
                        for cr, mr in zip(comb, M)]
                scale = (scale * t) % ell
            poly = _charpoly(comb, ell)
            roots = []
            for lam in range(ell):
                acc = 0
                for a in reversed(poly):
                    acc = (acc * lam + a) % ell
                if not acc:
                    roots.append(lam)
            if len(roots) < k:
                continue
            krylov = [[1] + [0] * (k - 1)]
            for _ in range(k - 1):
                last = krylov[-1]
                krylov.append([sum(map(mul, row, last)) % ell for row in comb])
            coords = list(zip(*krylov))  # coords[r][i] = (C^i e_0)_r
            vecs = []
            for lam in roots:
                q = [1] * k  # p / (x - lam), from the top coefficient down
                for i in range(k - 1, 0, -1):
                    q[i - 1] = (poly[i] + lam * q[i]) % ell
                v = tuple(sum(map(mul, q, c)) % ell for c in coords)
                if not any(v):
                    raise ArithmeticError(
                        "zero Krylov vector at a simple eigenvalue")
                vecs.append(v)
            return vecs
        raise ArithmeticError("no separating class-sum combination found")

    # queries -----------------------------------------------------------------

    def value(self, t: int, j: int) -> CycNum:
        return self.values[t][j]

    def power_class(self, j: int, k: int) -> int:
        return self.class_of[self.group.power(self.reps[j], k)]

    # certification -----------------------------------------------------------

    def certify(self) -> dict:
        """Degree sum and both orthogonality relations, exactly: each of the
        2 k^2 sums is one `_ZeroTest` at the values' conductor, exp(G) here.
        With V = A / L over a common denominator and the weights cleared by
        |G|, they test sum_j |C_j| A_tj A_u,inv(j) = delta_tu |G| L^2 and
        sum_t A_ti A_t,inv(j) = delta_ij |G| / |C_i| L^2, whose differences
        |G| (max|A|_1^2 + L^2) bounds, as sum_j |C_j| = |G| and k <= |G|.
        Each distinct value is packed once and each row scaled by |C_j|
        once; no sum is reduced or built as a CycNum."""
        n, k, V, inv = self.group.n, self.k, self.values, self.inverse
        distinct = {id(x): x for row in V for x in row}
        cond = math.lcm(self.exponent, *(x.n for x in distinct.values()))
        den = math.lcm(*(x.den for x in distinct.values()))
        ints = {i: x.embed(cond) * den for i, x in distinct.items()}
        top = max(sum(map(abs, a.num)) for a in ints.values())
        test = _ZeroTest(cond, n * (top * top + den * den))
        packed = {i: test.pack(a) for i, a in ints.items()}
        rows = [[packed[id(x)] for x in row] for row in V]
        scaled = [list(map(mul, self.sizes, row)) for row in rows]
        inv_rows = [[row[i] for i in inv] for row in rows]
        columns = list(zip(*rows))
        unit = den * den

        def vanishes(a, b, delta):
            return test.is_zero(test.times_psi(sum(map(mul, a, b)) - delta))

        checks = [
            {"check": "sum of squared degrees equals group order",
             "pass": sum(d * d for d in self.degrees) == n},
            {"check": "first orthogonality relations",
             "pass": all(vanishes(scaled[t], inv_rows[u],
                                  n * unit if t == u else 0)
                         for t in range(k) for u in range(k))},
            {"check": "second orthogonality relations",
             "pass": all(vanishes(columns[i], columns[inv[j]],
                                  n // self.sizes[i] * unit if i == j else 0)
                         for i in range(k) for j in range(k))},
        ]
        return {"order": n, "classes": k, "degrees": list(self.degrees),
                "checks": checks, "pass": all(c["pass"] for c in checks)}

    def to_dict(self) -> dict:
        return {
            "order": self.group.n,
            "exponent": self.exponent,
            "class_reps": [self.group.names[r] for r in self.reps],
            "class_sizes": list(self.sizes),
            "degrees": list(self.degrees),
            "rows": [[v.to_dict() for v in row] for row in self.values],
        }


@lru_cache(maxsize=None)
def cyclic_table(m: int) -> CharTable:
    """`CharTable.cyclic` of the preset C_m on its generator, built once per
    order: the table of every cyclic subgroup of order m that
    `Subgroup.cyclic` presents, and of every verifier on C_m."""
    return CharTable.cyclic(preset(f"C{m}"), 1 % m)


def _layout(group: FiniteGroup, classes: list[list[int]]) -> tuple:
    """(reps, sizes, class_of, inverse, weights) of a class list: class_of[g]
    is the class of the element g, inverse[j] the class of reps[j]^-1 and
    weights[j] = |C_j| / |G|."""
    class_of = [0] * group.n
    for j, cls in enumerate(classes):
        for g in cls:
            class_of[g] = j
    reps = [c[0] for c in classes]
    sizes = [len(c) for c in classes]
    return (reps, sizes, class_of, [class_of[group.inv[g]] for g in reps],
            [Fraction(s, group.n) for s in sizes])


# -- virtual characters -------------------------------------------------------

class VirtualChar:
    """A rational combination of the irreducibles of a fixed table.

    The values on the classes are stored once: an irreducible's are its
    table row and `from_values` keeps the input it has checked.  Any other,
    such as the result of `+`, `-` or `scale`, is summed from the
    coefficients on first use."""

    __slots__ = ("table", "coeffs", "_values")

    def __init__(self, table: CharTable, coeffs: dict[int, Fraction]):
        self.table = table
        coeffs = {t: _as_fraction(c) for t, c in coeffs.items()}
        self.coeffs = {t: c for t, c in coeffs.items() if c}
        self._values = None

    @classmethod
    def irreducible(cls, table: CharTable, t: int) -> "VirtualChar":
        vc = cls(table, {t: Fraction(1)})
        vc._values = table.values[t]
        return vc

    @classmethod
    def from_values(cls, table: CharTable, values: list[CycNum]) -> "VirtualChar":
        """Decompose a class function exactly in the irreducible basis."""
        values = list(values)
        inv = table.inverse
        projections = _dot([(table.weights, values, [row[i] for i in inv])
                            for row in table.values])
        vc = cls(table, {t: p.as_rational() for t, p in enumerate(projections)})
        # confirm the decomposition reproduces the input
        if vc._row() != values:
            raise ValueError("class function is not in the character span")
        vc._values = values
        return vc

    def _row(self) -> list[CycNum]:
        """The stored values, summed from the coefficients if there are
        none yet."""
        if self._values is None:
            ts, cs = list(self.coeffs), list(self.coeffs.values())
            ones = [CycNum.from_rational(1)] * len(ts)
            self._values = _dot([(cs, [self.table.values[t][j] for t in ts],
                                  ones) for j in range(self.table.k)])
        return self._values

    def value(self, j: int) -> CycNum:
        return self._row()[j]

    def multiplicity_sums(self, g: int) -> tuple[list[int], int]:
        """(acc, den) with acc[u] / den the coefficient of xi^u (xi(g) =
        zeta_|g|) in self restricted to <g>: the eigen rows summed as ints
        over the coefficients' common denominator den."""
        j = self.table.class_of[g]
        eigen = self.table.eigen
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        acc = [0] * len(eigen[0][j])
        for t, c in self.coeffs.items():
            w = c.numerator * (den // c.denominator)
            acc = [a + w * mu for a, mu in zip(acc, eigen[t][j])]
        return acc, den

    def multiplicities(self, g: int) -> list[Fraction]:
        """Coefficients of xi^u (xi(g) = zeta_|g|) in self restricted to
        <g>."""
        acc, den = self.multiplicity_sums(g)
        return [Fraction(a, den) for a in acc]

    def values(self) -> list[CycNum]:
        return list(self._row())

    def _same_table(self, other: "VirtualChar"):
        if self.table is not other.table:
            raise ValueError("characters live on different tables")

    def __add__(self, other):
        self._same_table(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, Fraction(0)) + c
        return VirtualChar(self.table, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VirtualChar(self.table, {t: -c for t, c in self.coeffs.items()})

    def scale(self, r) -> "VirtualChar":
        r = _as_fraction(r)
        return VirtualChar(self.table, {t: c * r for t, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, VirtualChar):
            return NotImplemented
        self._same_table(other)
        return self.coeffs == other.coeffs

    def inner(self, other: "VirtualChar") -> Fraction:
        """(1/|G|) sum_g self(g) conj(other(g)) = sum_t a_t b_t, as the
        irreducibles are orthonormal: `CharTable.of` certifies it or raises,
        and `CharTable.cyclic`'s rows zeta_m^(ij) are so by construction."""
        self._same_table(other)
        return sum((c * other.coeffs.get(t, 0) for t, c in self.coeffs.items()),
                   Fraction(0))

    def adams(self, k: int) -> "VirtualChar":
        """psi_k: the class function g -> chi(g^k), decomposed exactly.  It
        depends on the coefficients and k alone, so the decomposition is
        kept on the table and later calls read it."""
        tb = self.table
        key = (frozenset(self.coeffs.items()), k)
        psi = tb.adams_cache.get(key)
        if psi is None:
            vals = [self.value(tb.power_class(j, k)) for j in range(tb.k)]
            psi = tb.adams_cache[key] = VirtualChar.from_values(tb, vals)
        return psi

    def __repr__(self):
        if not self.coeffs:
            return "VirtualChar(0)"
        bits = [f"{c}*chi{t}" for t, c in sorted(self.coeffs.items())]
        return "VirtualChar(" + " + ".join(bits) + ")"


def induce(vc: VirtualChar, sub: Subgroup, parent_table: CharTable) -> VirtualChar:
    """Induction of a class function from H to G: for g in the class C_j,
    Ind(f)(g) = (1/|H|) sum over x in G with x g x^-1 in H of f(x g x^-1)
              = |G| / (|H| |C_j|) sum over h in H and C_j of f(h),
    since each h in C_j is x g x^-1 for |G| / |C_j| elements x.  The
    elements of H are counted by G-class and H-class, so each value is one
    weighted sum of f's values on the classes of H."""
    if vc.table.group is not sub.group:
        raise ValueError("character does not live on the subgroup")
    T, S = parent_table, vc.table
    counts = [Counter() for _ in range(T.k)]  # [G-class][H-class]: elements
    for h, g in enumerate(sub.to_parent):
        counts[T.class_of[g]][S.class_of[h]] += 1
    hvals, one = vc._row(), CycNum.from_rational(1)
    vals = _dot([([Fraction(T.group.n * x, S.group.n * T.sizes[j])
                   for x in c.values()], [hvals[i] for i in c], [one] * len(c))
                 for j, c in enumerate(counts)])
    return VirtualChar.from_values(T, vals)
