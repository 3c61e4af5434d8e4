"""Representing homomorphisms on characters, place by place.

A ReprHom assigns each irreducible character a tame monomial value; it is
the exact shadow of a homomorphism on the full character ring, extended
multiplicatively.  A PlacedHom is a finitely supported family of these,
one per labelled place, each place carrying its residue size q_v and its
ramification element s_v.  The distinguished family built here is

    f_v(chi) = pi_v ^ <psi2 chi - 2 chi, s_v>

whose exponent also equals <chi, s_v>* - <chi, s_v>.  decompose splits a
family into single-place factors and recompose multiplies them back, an
exact round trip.  norm_restrict forms the transversal-twisted product
implementing restriction of scalars on values.

crux_check ties the threads together p-adically: for the cyclic group of
odd order e and a prime p = 1 mod e, some identification of its character
group with the order-e characters of F_p^* must make the lambda-adic
valuation of every adjusted Jacobi sum J*(chi) equal to

    (p - 1) * (<chi, s>* - <chi, s>).

The valuation of J* is computed as v(tau(chi^2)) - 2 v(tau(chi)) so that
only integral Gauss sums ever meet the p-adic embedding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import is_prime_power
from .characters import CharTable, VirtualChar
from .gaussjacobi import MultChar, gauss_sum
from .groups import FiniteGroup, preset
from .localmodel import TameElement, frobenius_action
from .padic import lambda_valuation
from .stickelberger import pairing, star_pairing


class ReprHom:
    """Monomial-valued map on the irreducible characters of one table."""

    __slots__ = ("table", "values")

    def __init__(self, table: CharTable, values: dict[int, TameElement] | None = None):
        vals = {}
        for i in range(table.k):
            x = (values or {}).get(i, TameElement.one())
            if not isinstance(x, TameElement):
                x = TameElement.monomial(Fraction(0), x)
            if not x:
                raise ValueError(f"value at character {i} must be nonzero")
            vals[i] = x
        self.table = table
        self.values = vals

    @classmethod
    def trivial(cls, table: CharTable) -> "ReprHom":
        return cls(table)

    def value(self, i: int) -> TameElement:
        return self.values[i]

    def on_virtual(self, vc: VirtualChar) -> TameElement:
        """Multiplicative extension: sums of characters map to products."""
        if vc.table is not self.table:
            raise ValueError("character lives on a different table")
        out = TameElement.one()
        for i, c in sorted(vc.coeffs.items()):
            if c.denominator != 1:
                raise ValueError(f"non-integral multiplicity {c}")
            out = out * self.values[i] ** int(c)
        return out

    def is_trivial(self) -> bool:
        one = TameElement.one()
        return all(x == one for x in self.values.values())

    def __mul__(self, other: "ReprHom") -> "ReprHom":
        if not isinstance(other, ReprHom):
            return NotImplemented
        if self.table is not other.table:
            raise ValueError("homs live on different tables")
        return ReprHom(self.table,
                       {i: x * other.values[i] for i, x in self.values.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReprHom):
            return NotImplemented
        return self.table is other.table and all(
            self.values[i] == other.values[i] for i in self.values)

    __hash__ = None

    def to_dict(self) -> dict:
        return {str(i): x.to_dict() for i, x in sorted(self.values.items())}


class Place:
    """One labelled place: residue size, ramification element, hom."""

    __slots__ = ("label", "q", "s", "hom")

    def __init__(self, label: str, q: int, s: int, hom: ReprHom):
        if not is_prime_power(q):
            raise ValueError(f"residue size must be a prime power, got {q}")
        m = hom.table.group.element_order(s)
        if m % 2 == 0:
            raise ValueError(f"place {label!r}: |s| = {m} must be odd")
        if gcd(m, q) != 1:
            raise ValueError(f"place {label!r} is wild: gcd({m}, {q}) != 1")
        self.label = label
        self.q = q
        self.s = s
        self.hom = hom


class PlacedHom:
    """Finitely supported family of ReprHoms over labelled places."""

    __slots__ = ("table", "places")

    def __init__(self, table: CharTable, places: list[Place] | None = None):
        self.table = table
        self.places = {}
        for pl in places or []:
            if pl.hom.table is not table:
                raise ValueError("place hom on a different table")
            if pl.label in self.places:
                raise ValueError(f"duplicate place label {pl.label!r}")
            self.places[pl.label] = pl

    def labels(self) -> list[str]:
        return sorted(self.places)

    def hom(self, label: str) -> ReprHom:
        pl = self.places.get(label)
        return pl.hom if pl is not None else ReprHom.trivial(self.table)

    def __mul__(self, other: "PlacedHom") -> "PlacedHom":
        if not isinstance(other, PlacedHom):
            return NotImplemented
        if self.table is not other.table:
            raise ValueError("families live on different tables")
        merged = []
        for label in sorted(set(self.places) | set(other.places)):
            a, b = self.places.get(label), other.places.get(label)
            if a is not None and b is not None:
                if (a.q, a.s) != (b.q, b.s):
                    raise ValueError(f"place {label!r} has conflicting data")
                merged.append(Place(label, a.q, a.s, a.hom * b.hom))
            else:
                pl = a if a is not None else b
                merged.append(Place(pl.label, pl.q, pl.s, pl.hom))
        return PlacedHom(self.table, merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlacedHom):
            return NotImplemented
        if self.table is not other.table:
            return False
        labels = set(self.places) | set(other.places)
        for label in labels:
            a, b = self.places.get(label), other.places.get(label)
            if a is None or b is None:
                pl = a if a is not None else b
                if not pl.hom.is_trivial():
                    return False
                continue
            if (a.q, a.s) != (b.q, b.s) or a.hom != b.hom:
                return False
        return True

    __hash__ = None

    def to_dict(self) -> dict:
        return {label: {"q": pl.q, "s": pl.hom.table.group.names[pl.s],
                        "hom": pl.hom.to_dict()}
                for label, pl in sorted(self.places.items())}


def build_f(G: FiniteGroup, places: list[tuple[str, int, int]]) -> PlacedHom:
    """f_v(chi) = pi^<psi2 chi - 2 chi, s_v> at each declared place."""
    table = CharTable.of(G)
    built = []
    for label, q, s in places:
        values = {}
        for i in range(table.k):
            chi = VirtualChar.irreducible(table, i)
            e = pairing(chi.adams(2) - chi - chi, s)
            values[i] = TameElement.monomial(e)
        built.append(Place(label, q, s, ReprHom(table, values)))
    return PlacedHom(table, built)


def decompose(f: PlacedHom) -> list[PlacedHom]:
    """Single-place factors, in label order."""
    return [PlacedHom(f.table, [pl]) for _, pl in sorted(f.places.items())]


def recompose(parts: list[PlacedHom]) -> PlacedHom:
    """Product of the factors; exact inverse of decompose."""
    if not parts:
        raise ValueError("nothing to recompose")
    out = parts[0]
    for part in parts[1:]:
        out = out * part
    return out


def _twist_index(table: CharTable, i: int, k: int) -> int:
    """Row index of the Galois twist sigma_k . chi_i, read off the power
    maps: (sigma_k chi)(g) = chi(g^k)."""
    if gcd(k, table.exponent) != 1:
        raise ValueError(f"twist {k} not coprime to exponent {table.exponent}")
    row = table.values[i]
    target = [row[table.power_class(j, k)] for j in range(table.k)]
    for t in range(table.k):
        if table.values[t] == target:
            return t
    raise ValueError(f"no row matches the {k}-twist of character {i}")


def norm_restrict(f: ReprHom, twists: list[int]) -> ReprHom:
    """Product over the transversal of the twisted homs.

    The twist k sends chi to the value of f at sigma_k . chi, conjugated
    back by k; a singleton transversal [1] is the identity.
    """
    if not twists:
        raise ValueError("empty transversal")
    table = f.table
    values = {}
    for i in range(table.k):
        acc = TameElement.one()
        for k in twists:
            acc = acc * frobenius_action(f.value(_twist_index(table, i, k)), k)
        values[i] = acc
    return ReprHom(table, values)


def crux_check(p: int, e: int, precision: int | None = None) -> dict:
    """Match lambda-adic J* valuations against pairing differences.

    Quantifies existentially over the group isomorphisms from the
    character group of C_e to the order-e characters of F_p^* (one per
    unit u mod e); each must be tested on every character.  Valuations
    are exact: v(J*) = v(tau(chi^2)) - 2 v(tau(chi)), and the target is
    (p-1)(<chi,s>* - <chi,s>).
    """
    if e < 1 or e % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {e}")
    if (p - 1) % e != 0:
        raise ValueError(f"{e} does not divide {p} - 1")
    G = preset(f"C{e}")
    s = 1 % e
    table = CharTable.cyclic(G, s)
    rhs = {}
    for j in range(e):
        chi = VirtualChar.irreducible(table, j)
        r = (p - 1) * (star_pairing(chi, s) - pairing(chi, s))
        rhs[j] = int(r)

    val_cache: dict[tuple[int, int], int] = {}

    def tau_valuation(chi: MultChar) -> int:
        key = chi.reduced()
        if key not in val_cache:
            val_cache[key] = lambda_valuation(gauss_sum(chi), p, precision)
        return val_cache[key]

    candidates = [u for u in range(1, e) if gcd(u, e) == 1] or [1]
    matched = []
    reports = []
    for u in candidates:
        per = []
        ok = True
        for j in range(e):
            chi_t = MultChar(p, e, u * j)
            if chi_t.is_trivial:
                lhs = 0
            else:
                lhs = tau_valuation(chi_t * chi_t) - 2 * tau_valuation(chi_t)
            good = lhs == rhs[j]
            ok = ok and good
            per.append({"chi": j, "lhs_val": lhs, "rhs_val": rhs[j],
                        "pass": good})
        reports.append(per)
        if ok:
            matched.append(u)
    first = candidates.index(matched[0]) if matched else 0
    return {
        "suite": "crux",
        "p": p,
        "e": e,
        "candidates": candidates,
        "identifications": matched,
        "per_chi": reports[first],
        "pass": bool(matched),
    }
