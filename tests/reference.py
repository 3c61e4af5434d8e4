"""Reference arithmetic for the tests, built on the library's kept API:
CycNum differences and quotients through `+`, negation and `inverse`,
virtual-character coefficients and values through `num`, `den` and
`value`, restriction of class functions to a subgroup given by its
inclusion list, rows {a: c} of the coefficients c of pi^(a/m) summed and
scaled term by term, TameElement powers through `*` and `inverse`, and a
resolvend as its rows on the group, built by `sigma_action`."""

from fractions import Fraction

from tamekit.characters import CharTable, VirtualChar
from tamekit.cyclotomic import CycNum
from tamekit.groups import FiniteGroup
from tamekit.localmodel import TameElement, sigma_action


def minus(a, b):
    """a - b for CycNums, ints and Fractions, at least one a CycNum."""
    return a + (-b)


def div(a, b):
    """a / b for a CycNum a and a nonzero CycNum, int or Fraction b."""
    return a * (b.inverse() if isinstance(b, CycNum) else 1 / Fraction(b))


def coeffs(vc: VirtualChar) -> dict[int, Fraction]:
    """{t: coefficient of chi_t} over the nonzero coefficients."""
    return {t: Fraction(c, vc.den) for t, c in enumerate(vc.num) if c}


def values(vc: VirtualChar) -> list[CycNum]:
    """The values on the table's classes, in class order."""
    return [vc.value(j) for j in range(vc.table.k)]


def scaled(vc: VirtualChar, r) -> VirtualChar:
    """r vc for an int or Fraction r."""
    return VirtualChar(vc.table, {t: c * r for t, c in coeffs(vc).items()})


def subgroup(G: FiniteGroup, elements) -> tuple[FiniteGroup, list[int]]:
    """(H, to_parent) for the subgroup of G on the given elements: H is a
    law-checked FiniteGroup whose element h is to_parent[h] in G, in the
    order of G's indices, so the identity comes first."""
    to_parent = sorted(set(elements))
    pos = {g: h for h, g in enumerate(to_parent)}
    # -1 marks a product that leaves the elements, which H's check rejects
    table = [[pos.get(G.table[a][b], -1) for b in to_parent]
             for a in to_parent]
    return FiniteGroup(table, [G.names[g] for g in to_parent]), to_parent


def restrict(vc: VirtualChar, to_parent: list[int],
             subtable: CharTable) -> VirtualChar:
    """Restriction of a class function on G to a subgroup H, element h of
    H sitting at to_parent[h] in G, decomposed on the given table of H by
    CycNum inner products, which meet G's values and H's at the lcm of
    their conductors: the reference route that the Frobenius-reciprocity
    and multiplicity tests check the library against.  ValueError unless
    the decomposition is rational and reproduces the restricted values."""
    if len(to_parent) != subtable.group.n:
        raise ValueError("inclusion list does not match the subtable")
    gvals = values(vc)
    res = [gvals[vc.table.class_of[to_parent[h]]] for h in subtable.reps]
    zero = CycNum.from_rational(0)
    # (res, chi_t)_H = sum_j |C_j|/|H| res(C_j^-1) chi_t(C_j)
    inner = [sum((w * res[i] * x for w, i, x in
                  zip(subtable.weights, subtable.inverse, row)), zero)
             for row in subtable.values]
    out = VirtualChar(subtable, {t: p.as_rational()
                                 for t, p in enumerate(inner) if p})
    if values(out) != res:
        raise ValueError("class function is not in the character span")
    return out


def row_sum(*rows: dict) -> dict:
    """The sum of rows {a: c}, key by key, zeros dropped."""
    out: dict[int, CycNum] = {}
    for row in rows:
        for a, c in row.items():
            out[a] = out[a] + c if a in out else c
    return {a: c for a, c in out.items() if c}


def row_scaled(row: dict, c) -> dict:
    """Each coefficient of row times the scalar c, zeros dropped."""
    return row_sum({a: x * c for a, x in row.items()})


def monomial(row: dict, m: int) -> TameElement:
    """The single term c pi^(a/m) of row; ValueError for any other row."""
    if len(row) != 1:
        raise ValueError(f"{len(row)} terms, not one")
    [(a, c)] = row.items()
    return TameElement(Fraction(a, m), c)


def tame_pow(x: TameElement, k: int) -> TameElement:
    """x^k by repeated products; k < 0 inverts x first."""
    if k < 0:
        x, k = x.inverse(), -k
    out = TameElement()
    for _ in range(k):
        out = out * x
    return out


def resolvend(G: FiniteGroup, s: int, start: int) -> dict[int, dict]:
    """{g: r[g]} for r = sum_i sigma^i(ladder) s^(-i), the ladder (1/m)
    sum_{i<m} pi^((start + i)/m) with m = |s|, each r[g] its row {a:
    coefficient of pi^(a/m)}: each sigma^i applied by `sigma_action`, each
    s^(-i) taken by G's power map."""
    m = G.element_order(s)
    x = dict.fromkeys(range(start, start + m),
                      CycNum.from_rational(Fraction(1, m)))
    out = {}
    for i in range(m):
        out[G.power(s, -i)] = x
        x = sigma_action(x, m)
    return out
