"""Reference arithmetic for the tests, built on the library's kept API:
CycNum differences and quotients through `+`, negation and `inverse`,
virtual-character coefficients and values through `num`, `den` and
`value`, restriction of class functions to a subgroup given by its
inclusion list, TameElements with any coefficients and their sums,
negatives, scalar multiples and powers through `_make` and `*`, and a
resolvend as its coefficients on the group, built by `sigma_action`."""

from fractions import Fraction
from math import lcm

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


def tame_terms(terms: dict | None = None, den: int = 1) -> TameElement:
    """sum of c pi^(a/den) over the items a: c of terms, int and Fraction
    coefficients coerced and zeros dropped."""
    clean = {a: c if isinstance(c, CycNum) else CycNum.from_rational(c)
             for a, c in (terms or {}).items()}
    return TameElement._make({a: c for a, c in clean.items() if c}, den)


def tame_monomial(exponent, coeff) -> TameElement:
    """coeff pi^exponent for a rational exponent and a scalar coeff."""
    e = Fraction(exponent)
    return tame_terms({e.numerator: coeff}, e.denominator)


def tame(x) -> TameElement:
    """x as a TameElement: a scalar x is x pi^0."""
    return x if isinstance(x, TameElement) else tame_terms({0: x})


def tame_sum(*xs: TameElement) -> TameElement:
    """The sum, over the lcm of the denominators."""
    den = lcm(*(x.den for x in xs))
    out: dict[int, CycNum] = {}
    for x in xs:
        for a, c in x.terms.items():
            a *= den // x.den
            out[a] = out[a] + c if a in out else c
    return tame_terms(out, den)


def tame_neg(x: TameElement) -> TameElement:
    return tame_terms({a: -c for a, c in x.terms.items()}, x.den)


def tame_sub(x: TameElement, y: TameElement) -> TameElement:
    return tame_sum(x, tame_neg(y))


def tame_pow(x: TameElement, k: int) -> TameElement:
    """x^k by repeated products; k < 0 inverts x, a monomial, first."""
    if k < 0:
        x, k = x.inverse(), -k
    out = TameElement.one()
    for _ in range(k):
        out = out * x
    return out


def resolvend(G: FiniteGroup, s: int, start: int) -> dict[int, TameElement]:
    """{g: r[g]} for r = sum_i sigma^i(ladder) s^(-i), the ladder (1/m)
    sum_{i<m} pi^((start + i)/m) with m = |s|: each sigma^i applied by
    `sigma_action`, each s^(-i) taken by G's power map."""
    m = G.element_order(s)
    x = tame_terms(dict.fromkeys(range(start, start + m), Fraction(1, m)), m)
    out = {}
    for i in range(m):
        out[G.power(s, -i)] = x
        x = sigma_action(x)
    return out
