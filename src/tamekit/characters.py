"""Exact character tables and virtual characters.

Tables are computed by Dixon's modular method: the class-sum multiplication
matrices are simultaneously diagonalized over F_ell for a prime
ell = 1 mod exp(G) with ell > 2|G|, degrees are recovered from the column
orthogonality relation mod ell, and each character value is lifted exactly
as chi(g) = sum_u m_u zeta_m^u where the eigenvalue multiplicities m_u are
small non-negative integers read off mod ell.  The lifted table is then
certified against both orthogonality relations and sum(d^2) = |G| with exact
cyclotomic arithmetic, so nothing downstream depends on the modular step.
The table keeps m_u as eigen[t][j][u] (g = reps[j], m = |g|), the
coefficient of xi^u, xi(g) = zeta_m, in chi_t restricted to <g>.  Reducing
Z[zeta_e] -> F_ell sends each lifted value to chi mod ell, so the true m_u
are congruent to the lifted ones mod ell; both lie in [0, d] with d < ell,
so the lifted m_u are exact once the table certifies.

Values are stored as CycNum at conductor exp(G).  Irreducibles are sorted by
(degree, lexicographic serialized values), except that tables built for a
cyclic group with a designated generator s keep the power order
xi^0, xi^1, ..., xi^{m-1} with xi(s^i) = zeta_m^i.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import is_prime, primitive_root
from .cyclotomic import CycNum, zeta
from .groups import FiniteGroup, Subgroup


# -- linear algebra over F_ell ----------------------------------------------

def _nullspace(mat: list[list[int]], ell: int) -> list[tuple[int, ...]]:
    k = len(mat)
    m = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, k) if m[i][c] % ell), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, ell)
        m[r] = [(x * inv) % ell for x in m[r]]
        for i in range(k):
            if i != r and m[i][c] % ell:
                f = m[i][c]
                m[i] = [(x - f * y) % ell for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * k
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % ell
        basis.append(tuple(v))
    return basis


def _mat_vec(mat, vec, ell):
    return tuple(sum(a * b for a, b in zip(row, vec)) % ell for row in mat)


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
        self.reps = [c[0] for c in classes]
        self.sizes = [len(c) for c in classes]
        self.k = len(classes)
        self.class_of = [0] * group.n
        for j, cls in enumerate(classes):
            for g in cls:
                self.class_of[g] = j
        self.exponent = group.exponent()
        self.values = values
        self.degrees = degrees
        self.eigen = eigen
        # certify() report of a table built by Dixon's method, kept so that
        # callers read it instead of recertifying the same table.
        self.certification: dict | None = None

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
                values[j][class_of_power[i]] = zeta(m, (i * j) % m)
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
        reps = [c[0] for c in classes]
        sizes = [len(c) for c in classes]
        class_of = [0] * n
        for j, cl in enumerate(classes):
            for g in cl:
                class_of[g] = j
        e = G.exponent()
        ell = _dixon_prime(e, n)

        rep_slot = {g: j for j, g in enumerate(reps)}
        a = [[[0] * k for _ in range(k)] for _ in range(k)]
        for j in range(k):
            for x in classes[j]:
                row = G.table[x]
                for i in range(k):
                    for y in classes[i]:
                        slot = rep_slot.get(row[y])
                        if slot is not None:
                            a[j][i][slot] += 1
        # matrix of multiplication by class sum j, in the class-sum basis
        mats = [[[a[j][i][kk] % ell for i in range(k)] for kk in range(k)]
                for j in range(k)]

        vecs = cls._simultaneous_eigenvectors(mats, ell, k)

        inv_class = [class_of[G.inv[reps[j]]] for j in range(k)]
        z_e = pow(primitive_root(ell), (ell - 1) // e, ell)

        rows = []
        for v in vecs:
            idx = next(i for i in range(k) if v[i])
            omega = []
            for j in range(k):
                mv = _mat_vec(mats[j], v, ell)
                omega.append((mv[idx] * pow(v[idx], -1, ell)) % ell)
            s = sum(om * omega[inv_class[j]] * pow(sizes[j], -1, ell)
                    for j, om in enumerate(omega)) % ell
            dsq = (n * pow(s, -1, ell)) % ell
            d = next((t for t in range(1, math.isqrt(n) + 1)
                      if (t * t) % ell == dsq), None)
            if d is None:
                raise ArithmeticError("degree not recovered mod ell")
            chi_mod = [(d * om * pow(sizes[j], -1, ell)) % ell
                       for j, om in enumerate(omega)]
            rows.append((d, chi_mod))

        values = []
        degrees = []
        eigen = []
        for d, chi_mod in sorted(rows, key=lambda r: r[0]):
            row = []
            mults = []
            for j in range(k):
                m = G.element_order(reps[j])
                powers = [chi_mod[class_of[G.power(reps[j], vv)]]
                          for vv in range(m)]
                z_m = pow(z_e, e // m, ell)
                minv = pow(m, -1, ell)
                mu = tuple(
                    (minv * sum(powers[vv] * pow(z_m, (-u * vv) % (ell - 1), ell)
                                for vv in range(m))) % ell
                    for u in range(m))
                if max(mu) > d:
                    raise ArithmeticError("eigenvalue multiplicity lift failed")
                if sum(mu) != d:
                    raise ArithmeticError("multiplicities do not sum to degree")
                row.append(CycNum(m, dict(enumerate(mu))).embed(e))
                mults.append(mu)
            values.append(row)
            degrees.append(d)
            eigen.append(mults)

        order_key = sorted(range(len(values)),
                           key=lambda t: (degrees[t], _row_key(values[t])))
        values = [values[t] for t in order_key]
        degrees = [degrees[t] for t in order_key]
        eigen = [eigen[t] for t in order_key]

        table = cls(group, classes, values, degrees, eigen)
        report = table.certify()
        if not report["pass"]:
            raise ArithmeticError(f"character table failed certification: {report}")
        table.certification = report
        return table

    @staticmethod
    def _simultaneous_eigenvectors(mats, ell, k):
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        for t in range(1, 200):
            comb = [[0] * k for _ in range(k)]
            scale = 1
            for M in mats:
                for r in range(k):
                    row = comb[r]
                    mr = M[r]
                    for c in range(k):
                        row[c] = (row[c] + scale * mr[c]) % ell
                scale = (scale * t) % ell
            vecs = []
            good = True
            for lam in range(ell):
                shifted = [[(comb[r][c] - (lam if r == c else 0)) % ell
                            for c in range(k)] for r in range(k)]
                ns = _nullspace(shifted, ell)
                if len(ns) > 1:
                    good = False
                    break
                vecs.extend(ns)
                if len(vecs) == k:
                    break
            if not good or len(vecs) != k:
                continue
            if all(_is_eigen(M, v, ell) for M in mats for v in vecs):
                return vecs
        raise ArithmeticError("no separating class-sum combination found")

    # queries -----------------------------------------------------------------

    def value(self, t: int, j: int) -> CycNum:
        return self.values[t][j]

    def power_class(self, j: int, k: int) -> int:
        return self.class_of[self.group.power(self.reps[j], k)]

    def inverse_class(self, j: int) -> int:
        return self.class_of[self.group.inv[self.reps[j]]]

    def trivial_index(self) -> int:
        one = CycNum.from_rational(1)
        for t in range(len(self.values)):
            if self.degrees[t] == 1 and all(v == one for v in self.values[t]):
                return t
        raise AssertionError("no trivial character")

    # certification -----------------------------------------------------------

    def certify(self) -> dict:
        n = self.group.n
        checks = []
        ok_deg = sum(d * d for d in self.degrees) == n
        checks.append({"check": "sum of squared degrees equals group order",
                       "pass": ok_deg})
        ok_rows = True
        for t in range(self.k):
            for u in range(self.k):
                acc = CycNum.from_rational(0)
                for j in range(self.k):
                    acc = acc + self.sizes[j] * self.values[t][j] * \
                        self.values[u][self.inverse_class(j)]
                want = Fraction(n if t == u else 0)
                if acc != CycNum.from_rational(want):
                    ok_rows = False
        checks.append({"check": "first orthogonality relations", "pass": ok_rows})
        ok_cols = True
        for i in range(self.k):
            for j in range(self.k):
                acc = CycNum.from_rational(0)
                for t in range(self.k):
                    acc = acc + self.values[t][i] * \
                        self.values[t][self.inverse_class(j)]
                want = Fraction(n, self.sizes[i]) if i == j else Fraction(0)
                if acc != CycNum.from_rational(want):
                    ok_cols = False
        checks.append({"check": "second orthogonality relations", "pass": ok_cols})
        return {"order": n, "classes": self.k, "degrees": list(self.degrees),
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


def _is_eigen(M, v, ell):
    mv = _mat_vec(M, v, ell)
    idx = next(i for i in range(len(v)) if v[i])
    lam = (mv[idx] * pow(v[idx], -1, ell)) % ell
    return all((lam * x - y) % ell == 0 for x, y in zip(v, mv))


def _row_key(row: list[CycNum]):
    return tuple(
        tuple((e, c.numerator, c.denominator) for e, c in sorted(v.coeffs.items()))
        for v in row)


# -- virtual characters -------------------------------------------------------

class VirtualChar:
    """A rational combination of the irreducibles of a fixed table."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: CharTable, coeffs: dict[int, Fraction]):
        self.table = table
        self.coeffs = {t: Fraction(c) for t, c in coeffs.items() if c}

    @classmethod
    def irreducible(cls, table: CharTable, t: int) -> "VirtualChar":
        return cls(table, {t: Fraction(1)})

    @classmethod
    def from_values(cls, table: CharTable, values: list[CycNum]) -> "VirtualChar":
        """Decompose a class function exactly in the irreducible basis."""
        n = table.group.n
        coeffs = {}
        for t in range(table.k):
            acc = CycNum.from_rational(0)
            for j in range(table.k):
                acc = acc + table.sizes[j] * values[j] * \
                    table.values[t][table.inverse_class(j)]
            c = (acc / n).as_rational()
            if c:
                coeffs[t] = c
        # confirm the decomposition reproduces the input
        for j in range(table.k):
            got = CycNum.from_rational(0)
            for t, c in coeffs.items():
                got = got + c * table.values[t][j]
            if got != values[j]:
                raise ValueError("class function is not in the character span")
        return cls(table, coeffs)

    def value(self, j: int) -> CycNum:
        acc = CycNum.from_rational(0)
        for t, c in self.coeffs.items():
            acc = acc + c * self.table.values[t][j]
        return acc

    def multiplicities(self, g: int) -> list[Fraction]:
        """Coefficients of xi^u (xi(g) = zeta_|g|) in self restricted to <g>."""
        j = self.table.class_of[g]
        eig = [(c, self.table.eigen[t][j]) for t, c in self.coeffs.items()]
        return [sum((c * mu[u] for c, mu in eig), Fraction(0))
                for u in range(self.table.group.element_order(g))]

    def values(self) -> list[CycNum]:
        return [self.value(j) for j in range(self.table.k)]

    def degree(self) -> Fraction:
        return sum((c * self.table.degrees[t] for t, c in self.coeffs.items()),
                   Fraction(0))

    def is_genuine(self) -> bool:
        return all(c.denominator == 1 and c > 0 for c in self.coeffs.values())

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
        self._same_table(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, Fraction(0)) - c
        return VirtualChar(self.table, out)

    def __neg__(self):
        return VirtualChar(self.table, {t: -c for t, c in self.coeffs.items()})

    def scale(self, r) -> "VirtualChar":
        r = Fraction(r)
        return VirtualChar(self.table, {t: c * r for t, c in self.coeffs.items()})

    def __mul__(self, other):
        """Pointwise product of class functions, re-decomposed exactly."""
        self._same_table(other)
        vals = [self.value(j) * other.value(j) for j in range(self.table.k)]
        return VirtualChar.from_values(self.table, vals)

    def __eq__(self, other):
        if not isinstance(other, VirtualChar):
            return NotImplemented
        self._same_table(other)
        return self.coeffs == other.coeffs

    def inner(self, other: "VirtualChar") -> Fraction:
        """(1/|G|) sum_g self(g) * conj(other(g)), exact."""
        self._same_table(other)
        tb = self.table
        acc = CycNum.from_rational(0)
        for j in range(tb.k):
            acc = acc + tb.sizes[j] * self.value(j) * \
                other.value(j).galois_apply(-1)
        return (acc / tb.group.n).as_rational()

    def adams(self, k: int) -> "VirtualChar":
        """psi_k: the class function g -> chi(g^k), decomposed exactly."""
        tb = self.table
        vals = [self.value(tb.power_class(j, k)) for j in range(tb.k)]
        return VirtualChar.from_values(tb, vals)

    def __repr__(self):
        if not self.coeffs:
            return "VirtualChar(0)"
        bits = [f"{c}*chi{t}" for t, c in sorted(self.coeffs.items())]
        return "VirtualChar(" + " + ".join(bits) + ")"


def restrict(vc: VirtualChar, sub: Subgroup, subtable: CharTable) -> VirtualChar:
    """Restriction of a class function on G to a subgroup H, decomposed on
    the given table of H."""
    if vc.table.group is not sub.parent:
        raise ValueError("subgroup does not sit inside the character's group")
    gvals = vc.values()
    vals = []
    for j in range(subtable.k):
        h_parent = sub.to_parent[subtable.reps[j]]
        vals.append(gvals[vc.table.class_of[h_parent]])
    return VirtualChar.from_values(subtable, vals)


def induce(vc: VirtualChar, sub: Subgroup, parent_table: CharTable) -> VirtualChar:
    """Induction of a class function from H to G:
    Ind(f)(g) = (1/|H|) sum over x in G with x g x^-1 in H of f(x g x^-1)."""
    if vc.table.group is not sub.group:
        raise ValueError("character does not live on the subgroup")
    G = sub.parent
    hvals = vc.values()
    in_h = sub.from_parent
    vals = []
    for j in range(parent_table.k):
        g = parent_table.reps[j]
        acc = CycNum.from_rational(0)
        for x in range(G.n):
            y = G.conjugate(x, g)
            hi = in_h.get(y)
            if hi is not None:
                acc = acc + hvals[vc.table.class_of[hi]]
        vals.append(acc / sub.group.n)
    return VirtualChar.from_values(parent_table, vals)
