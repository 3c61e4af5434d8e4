"""Exact character tables and virtual characters.

Tables are computed by Dixon's modular method: the class-sum multiplication
matrices M_j are simultaneously diagonalized over F_ell for a prime ell = 1
mod exp(G), ell >= max(2|G| + 1, k^2), degrees are recovered from the column
orthogonality relation mod ell, and each character value is lifted exactly
as chi(g) = sum_u m_u zeta_m^u where the eigenvalue multiplicities m_u are
small non-negative integers read off mod ell.  No M_j is built: for each x,
x y = reps[kk] has one solution y, so the coefficient of class sum kk in
(class sum j)(class sum i) counts the x in C_j with x^-1 reps[kk] in C_i,
and one k x |G| list of those classes (`_class_products`) gives each
combination C of the M_j in one O(|G| k) pass.  A C with k distinct
eigenvalues mod ell has one-dimensional eigenspaces (Dixon, Numer. Math. 10,
1967; Schneider, J. Symbolic Comput. 9, 1990); k random values in F_ell all
differ with probability about exp(-k^2 / 2 ell), 0.6 at ell = k^2.  One
Krylov sequence C^i e_0, i <= k, e_0 the identity class, gives both its
characteristic polynomial p, by solving for C^k e_0 in the lower powers, and
its eigenvectors: for a root lam of p, found by evaluating it at the ell
points of F_ell, (p / (x - lam))(C) e_0 is killed by C - lam and is not
zero, since e_0 is the sum of the primitive idempotents of the class
algebra.  That is O(k^3) in all, with no elimination per root.  The class
matrices commute (class sums are central), so every class matrix preserves
each of these eigenspaces: their vectors are common eigenvectors without a
recheck, and the eigenvalues omega_j are read off the class products in one
pass over G per vector.  The lift takes one m-point DFT per character for
one class of generators of each cyclic subgroup <g>, with one table of
z_m^(-uv) per element order m, built once per table; the classes of the
other generators g^a, gcd(a, m) = 1, read the same multiplicities permuted,
m_(u a)(g^a) = m_u(g); each distinct value is built once and shared.  The
lifted table is then certified against both orthogonality relations and
sum(d^2) = |G| exactly, so nothing downstream depends on the modular step:
`certify` tests each of its 2 k^2 sums for zero with one
`cyclotomic._ZeroTest`, each distinct value packed once for all of them.
The table keeps m_u as eigen[t][j][u] (g = reps[j], m = |g|), the
coefficient of xi^u, xi(g) = zeta_m, in chi_t restricted to <g>.  Reducing
Z[zeta_e] -> F_ell sends each lifted value to chi mod ell, so the true m_u
are congruent to the lifted ones mod ell; both lie in [0, d] with d < ell,
so the lifted m_u are exact once the table certifies.

A VirtualChar sum_t num[t] chi_t / den has CycNum's form: k int
numerators indexed like the table's rows over one den > 0 with gcd(den,
*num) = 1, so equal characters have identical fields, and `+`, `-` and
`==` act on the ints.  It stores its values on the classes once, so
`value` is a lookup: an irreducible, one shared instance per table and
row, has its table row, `from_values` keeps the input it has decomposed
and checked, and any other sums them from its numerators once, on first
use.  Every character sum runs on the table's packed form
(`cyclotomic._PackedMatrix`, built on first use):
`from_values` projects with one `dot`, one product per class, and
reproduces its input, as sums from numerators are, by one `combine` of the
rows, with no product; `inner` is one integer dot product of the
numerators, since the irreducibles are orthonormal, and
`multiplicity_sums` sums Dixon's eigen rows with them.  The table also
keeps its class layout (representatives, sizes, the class of each
element, inverse classes and the weights |C_j|/|G|) and each psi_k chi
that `adams` decomposes, keyed by chi's (num, den) and k.  `induce` counts
the elements of H by their class in G and in H, so each value is at most
|H| rational multiples of f's values, instead of conjugating by every
element of G.

Table values are stored as CycNum at conductor exp(G).  Irreducibles are sorted by
(degree, lexicographic serialized values), except in `cyclic_table(m)`,
the table of the preset C_m (element i is g^i) in the power order xi^0,
..., xi^{m-1}, xi(g^i) = zeta_m^i: one table per order m for every cyclic
subgroup of that order, presented on C_m by its list of powers.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .arith import primitive_root, smallest_prime_in_class
from .cyclotomic import (CycNum, _PackedMatrix, _ZeroTest, _as_fraction,
                         _normal, zeta)
from .groups import FiniteGroup, preset


# -- linear algebra over F_ell ----------------------------------------------

def _krylov_poly(comb: list[list[int]], ell: int) -> tuple | None:
    """(p, [K_0, ..., K_(k-1)]), K_i = C^i e_0 mod ell for C = comb, k x k,
    and p = x^k + sum_(i<k) p_i x^i with p(C) e_0 = 0, coefficients from
    the constant term up; None at the first K_i, i < k, that depends on
    the earlier ones.  Each K_i is reduced as it is made against their
    echelon rows, kept with their coordinates in the K_j."""
    k = len(comb)
    krylov, basis = [], []  # basis: (pivot, row, coordinates)
    vec = [1] + [0] * (k - 1)
    for i in range(k + 1):
        row, co = vec, [0] * i + [1]
        for piv, brow, bco in basis:
            f = row[piv]
            if f:
                row = [(x - f * y) % ell for x, y in zip(row, brow)]
                co = [(x - f * y) % ell for x, y in zip(co, bco)] \
                    + co[len(bco):]
        piv = next((r for r, x in enumerate(row) if x), None)
        if piv is None:  # always so at i = k: K_0, ..., K_(k-1) span
            return (co, krylov) if i == k else None
        inv = pow(row[piv], -1, ell)
        basis.append((piv, [x * inv % ell for x in row],
                      [x * inv % ell for x in co]))
        krylov.append(vec)
        vec = [sum(map(mul, r, vec)) % ell for r in comb]


def _class_products(G: FiniteGroup, reps: list[int],
                    class_of: list[int]) -> list[list[int]]:
    """prods[kk][x] = the class of x^-1 reps[kk].  As x y = reps[kk] has one
    solution y = x^-1 reps[kk], M_j[kk][i], the coefficient of class sum kk
    in (class sum j)(class sum i), is #{x in C_j : prods[kk][x] = i}."""
    return [[class_of[G.table[y][r]] for y in G.inv] for r in reps]


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
        # VirtualChar.adams results, keyed by (num, den, k)
        self.adams_cache: dict = {}
        # VirtualChar.irreducible's shared instances, made on first use
        self.irreducibles: list = [None] * self.k

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
    def _dixon(cls, group: FiniteGroup) -> "CharTable":
        """Dixon's method; `certify` makes `eigen` exact (module docstring)."""
        G = group
        n = G.n
        classes = G.conjugacy_classes()
        k = len(classes)
        reps, sizes, class_of, inv_class, _ = _layout(G, classes)
        e = G.exponent()
        ell = smallest_prime_in_class(1, e, max(2 * n + 1, k * k))
        prods = _class_products(G, reps, class_of)
        vecs = cls._simultaneous_eigenvectors(prods, class_of, ell)

        inv_sizes = [pow(s, -1, ell) for s in sizes]
        z_e = pow(primitive_root(ell), (ell - 1) // e, ell)

        rows = []
        for v in vecs:
            # v is an eigenvector of every M_j, so omega_j = (M_j v)_idx /
            # v_idx, and (M_j v)_idx sums v[prods[idx][x]] over x in C_j
            idx = next(i for i in range(k) if v[i])
            v_inv = pow(v[idx], -1, ell)
            p = prods[idx]
            omega = [sum(v[p[x]] for x in cl) * v_inv % ell for cl in classes]
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
    def _simultaneous_eigenvectors(prods, class_of, ell):
        """k common eigenvectors mod ell of the class matrices M_j that the
        class products `prods` of a class layout `class_of` give.

        Tries combinations C = sum_j t^j M_j, C[kk][i] the sum of
        t^class_of[x] over the x with prods[kk][x] = i, until C has k
        distinct eigenvalues and returns an eigenvector for each, in
        increasing order of the eigenvalue, both from one Krylov sequence
        K_i = C^i e_0, i <= k, e_0 the identity class.  e_0 is the sum of
        the k primitive idempotents of the class algebra, which C scales by
        its eigenvalues, so K_0, ..., K_(k-1) are independent iff those are
        distinct, and then C's characteristic polynomial is the monic p
        with p(C) e_0 = 0 (`_krylov_poly`).  C is rejected at the first
        K_i that depends on the earlier ones (K_2 at t = 1), or when fewer
        than k points of F_ell are roots of p.  For a root lam,
        q = p / (x - lam) and v = q(C) e_0 = sum_i q_i K_i: (C - lam) v =
        p(C) e_0 = 0, and v != 0 as q is monic of degree k - 1.  Class sums
        are central, so the M_j commute with each other and with C, and
        M_j v lies in the eigenspace of lam, one-dimensional as lam is
        simple: each vector is an eigenvector of every M_j without a
        recheck; `certify` is the exact backstop for the whole table.
        t and t + ell give the same C, so at most min(200, ell) - 1
        combinations are tried."""
        k = len(prods)
        tries = range(1, min(200, ell))
        for t in tries:
            weights = [pow(t, j, ell) for j in class_of]
            comb = []
            for row in prods:
                acc = [0] * k
                for i, w in zip(row, weights):
                    acc[i] += w
                comb.append([a % ell for a in acc])
            found = _krylov_poly(comb, ell)
            if found is None:
                continue
            poly, krylov = found
            roots = []
            for lam in range(ell):
                acc = 0
                for a in reversed(poly):
                    acc = (acc * lam + a) % ell
                if not acc:
                    roots.append(lam)
            if len(roots) < k:
                continue
            coords = list(zip(*krylov))  # coords[r][i] = (C^i e_0)_r
            vecs = []
            for lam in roots:
                q = [1] * k  # p / (x - lam), from the top coefficient down
                for i in range(k - 1, 0, -1):
                    q[i - 1] = (poly[i] + lam * q[i]) % ell
                vecs.append(tuple(sum(map(mul, q, c)) % ell for c in coords))
            return vecs
        raise ArithmeticError(
            "no separating class-sum combination found: "
            f"|G| = {len(class_of)}, k = {k}, ell = {ell}, {len(tries)} tries")

    @cached_property
    def packed(self) -> _PackedMatrix:
        """The values as one `_PackedMatrix`, built on first use."""
        return _PackedMatrix(self.values)

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
        A and L are `packed`'s, each distinct value packed once and each
        row scaled by |C_j| once; no sum is reduced or built as a CycNum."""
        n, k, inv, P = self.group.n, self.k, self.inverse, self.packed
        test = _ZeroTest(P.n, n * (P.top * P.top + P.den * P.den))
        packed = {id(v): test.pack(v) for row in P.nums for v in row}
        rows = [[packed[id(v)] for v in row] for row in P.nums]
        scaled = [list(map(mul, self.sizes, row)) for row in rows]
        inv_rows = [[row[i] for i in inv] for row in rows]
        columns = list(zip(*rows))
        unit = P.den * P.den

        def vanishes(a, b, delta):
            return test.is_zero(test.times_binomials(sum(map(mul, a, b)) - delta))

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
        shown = {id(v): v.to_dict() for row in self.values for v in row}
        return {
            "order": self.group.n,
            "exponent": self.exponent,
            "class_reps": [self.group.names[r] for r in self.reps],
            "class_sizes": list(self.sizes),
            "degrees": list(self.degrees),
            "rows": [[shown[id(v)] for v in row] for row in self.values],
        }


@lru_cache(maxsize=None)
def cyclic_table(m: int) -> CharTable:
    """Table of the preset C_m (element i is g^i) in power order, row j
    xi^j(g^i) = zeta_m^(ij) = zeta_(m/c)^u, c = gcd(i, m), u = (ij mod m)/c:
    one per order, for each cyclic subgroup <s> (element i is s^i) and each
    verifier on C_m.  Each one-hot eigen row, one per (u, m/c), is shared."""
    gcds = [math.gcd(i, m) for i in range(m)]
    onehot = {c: [tuple(int(u == v) for v in range(m // c))
                  for u in range(m // c)] for c in set(gcds)}
    values = [[zeta(m, i * j % m) for i in range(m)] for j in range(m)]
    eigen = [[onehot[c][i * j % m // c] for i, c in enumerate(gcds)]
             for j in range(m)]
    return CharTable(preset(f"C{m}"), [[i] for i in range(m)], values,
                     [1] * m, eigen)


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
    """A rational combination sum_t num[t] chi_t / den of the irreducibles
    of a fixed table, in lowest terms (module docstring)."""

    __slots__ = ("table", "num", "den", "_values")

    def __init__(self, table: CharTable, coeffs: dict[int, Fraction]):
        """sum_t coeffs[t] chi_t, for int or Fraction coefficients."""
        coeffs = {t: _as_fraction(c) for t, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        num = [0] * table.k  # in lowest terms over the lcm of denominators
        for t, c in coeffs.items():
            num[t] = c.numerator * (den // c.denominator)
        self.table, self._values = table, None
        self.num, self.den = tuple(num), den

    @classmethod
    def _make(cls, table: CharTable, num: list, den: int) -> "VirtualChar":
        """sum_t num[t] chi_t / den for den > 0, with no coercion."""
        obj = object.__new__(cls)
        obj.table, obj._values = table, None
        obj.num, obj.den = _normal(num, den)
        return obj

    @classmethod
    def irreducible(cls, table: CharTable, t: int) -> "VirtualChar":
        """chi_t: one instance per table and row, made on first use."""
        if table.irreducibles[t] is None:
            vc = table.irreducibles[t] = cls._make(
                table, [int(i == t) for i in range(table.k)], 1)
            vc._values = table.values[t]
        return table.irreducibles[t]

    @classmethod
    def from_values(cls, table: CharTable, values: list[CycNum]) -> "VirtualChar":
        """Decompose a class function exactly in the irreducible basis;
        ValueError for a value at a conductor the table's does not contain."""
        values = list(values)
        projections = table.packed.dot([values[i] for i in table.inverse],
                                       table.weights)
        if not all(map(CycNum.is_rational, projections)):
            raise ValueError("class function is not rational in the "
                             "irreducible basis")
        den = math.lcm(*(p.den for p in projections))
        vc = cls._make(table, [p.num[0] * (den // p.den)
                               for p in projections], den)
        if vc._row() != values:  # the decomposition must reproduce them
            raise ValueError("class function is not in the character span")
        vc._values = values
        return vc

    def _row(self) -> list[CycNum]:
        """The stored values, summed from the numerators if there are none
        yet."""
        if self._values is None:
            self._values = self.table.packed.combine(
                {t: c for t, c in enumerate(self.num) if c}, self.den)
        return self._values

    def value(self, j: int) -> CycNum:
        return self._row()[j]

    def multiplicity_sums(self, g: int) -> tuple[list[int], int]:
        """(acc, den) with acc[u] / den the coefficient of xi^u (xi(g) =
        zeta_|g|) in self restricted to <g>: the eigen rows summed with
        the numerators, over their denominator."""
        j = self.table.class_of[g]
        eigen = self.table.eigen
        acc = [0] * len(eigen[0][j])
        for t, c in enumerate(self.num):
            if c:
                acc = [a + c * mu for a, mu in zip(acc, eigen[t][j])]
        return acc, self.den

    def _same_table(self, other: "VirtualChar"):
        if self.table is not other.table:
            raise ValueError("characters live on different tables")

    def __add__(self, other):
        self._same_table(other)
        da, db = self.den, other.den
        return VirtualChar._make(
            self.table, [x * db + y * da for x, y in zip(self.num, other.num)],
            da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VirtualChar._make(self.table, [-c for c in self.num], self.den)

    def __eq__(self, other):
        if not isinstance(other, VirtualChar):
            return NotImplemented
        self._same_table(other)
        return self.num == other.num and self.den == other.den

    def inner(self, other: "VirtualChar") -> Fraction:
        """(1/|G|) sum_g self(g) conj(other(g)) = sum_t a_t b_t, as the
        irreducibles are orthonormal: `CharTable.of` certifies it or raises,
        and `cyclic_table`'s rows zeta_m^(ij) are so by construction."""
        self._same_table(other)
        return Fraction(sum(map(mul, self.num, other.num)),
                        self.den * other.den)

    def adams(self, k: int) -> "VirtualChar":
        """psi_k: the class function g -> chi(g^k), decomposed exactly.  It
        depends on the coefficients and k alone, so the decomposition is
        kept on the table and later calls read it."""
        tb = self.table
        key = (self.num, self.den, k)
        psi = tb.adams_cache.get(key)
        if psi is None:
            vals = [self.value(tb.power_class(j, k)) for j in range(tb.k)]
            psi = tb.adams_cache[key] = VirtualChar.from_values(tb, vals)
        return psi


def induce(vc: VirtualChar, to_parent: list[int],
           parent_table: CharTable) -> VirtualChar:
    """Induction of a class function from H to G, element h of H sitting
    at to_parent[h] in G: for g in the class C_j,
    Ind(f)(g) = (1/|H|) sum over x in G with x g x^-1 in H of f(x g x^-1)
              = |G| / (|H| |C_j|) sum over h in H and C_j of f(h),
    since each h in C_j is x g x^-1 for |G| / |C_j| elements x.  The
    elements of H are counted by G-class and H-class, so each value is one
    weighted sum of f's values on the classes of H."""
    T, S = parent_table, vc.table
    if len(to_parent) != S.group.n:
        raise ValueError("inclusion list and character's group differ")
    counts = [Counter() for _ in range(T.k)]  # [G-class][H-class]: elements
    for h, g in enumerate(to_parent):
        counts[T.class_of[g]][S.class_of[h]] += 1
    hvals, zero = vc._row(), CycNum.from_rational(0)
    vals = [sum((hvals[i] * Fraction(T.group.n * x, S.group.n * T.sizes[j])
                 for i, x in c.items()), zero) for j, c in enumerate(counts)]
    return VirtualChar.from_values(T, vals)
