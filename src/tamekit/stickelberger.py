"""Stickelberger pairings on characters and their inner-product descriptions.

For s in G of order m and chi a character of G, the restriction of chi to
<s> is a sum of powers of the distinguished linear character xi with
xi(s^i) = zeta_m^i (the root zeta_m being zeta_{|G|}^{|G|/|s|}, so
everything lives in one compatible system); the multiplicity of xi^r is
that of the eigenvalue zeta_m^r of s, which the character table keeps from
Dixon's method (VirtualChar.multiplicities).  The pairing <chi, s> adds up
r/m over the restriction components xi^r with r taken in [0, m); the starred
pairing takes r in the symmetric window [(1-m)/2, (m-1)/2] and only exists
for odd m.

The verifiers here recompute both pairings through a second, independent
route: induction of the explicit virtual characters

    Xi_s   = (1/m) sum_{j=1}^{m-1} j xi^j
    Xi*_s  = (1/m) sum_{j=1}^{(m-1)/2} j (xi^j - xi^{-j})
    d(s)   = -sum_{j=1}^{(m-1)/2} xi^{-j}

followed by inner products on G, the projections `VirtualChar.from_values`
takes when it decomposes each induced character, and through the second
Adams operation.  Agreement of the routes is the content being certified.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import CharTable, VirtualChar, induce
from .groups import FiniteGroup, Subgroup


def _cyclic_context(G: FiniteGroup, s: int) -> tuple[Subgroup, CharTable]:
    cache = getattr(G, "_cyclic_ctx", None)
    if cache is None:
        cache = G._cyclic_ctx = {}
    if s not in cache:
        sub = Subgroup.cyclic(G, s)
        ctab = CharTable.cyclic(sub.group, sub.from_parent[s])
        cache[s] = (sub, ctab)
    return cache[s]


def pairing(vc: VirtualChar, s: int) -> Fraction:
    """<chi, s>: sum of {r/m} over the restriction components xi^r,
    weighted by multiplicity; linear in chi."""
    mults = vc.multiplicities(s)
    m = len(mults)
    return sum((c * Fraction(r, m) for r, c in enumerate(mults)), Fraction(0))


def star_pairing(vc: VirtualChar, s: int) -> Fraction:
    """<chi, s>*: as pairing but with exponents in the symmetric window
    [(1-m)/2, (m-1)/2]; defined only for odd-order s."""
    mults = vc.multiplicities(s)
    m = len(mults)
    if m % 2 == 0:
        raise ValueError(f"starred pairing needs odd order, got |s| = {m}")
    half = (m - 1) // 2
    return sum((c * Fraction(r if r <= half else r - m, m)
                for r, c in enumerate(mults)), Fraction(0))


def xi_char(G: FiniteGroup, s: int) -> VirtualChar:
    """Xi_s = (1/m) sum_{j=1}^{m-1} j xi^j on <s>."""
    _, ctab = _cyclic_context(G, s)
    m = ctab.k
    return VirtualChar(ctab, {j: Fraction(j, m) for j in range(1, m)})

def xi_star_char(G: FiniteGroup, s: int) -> VirtualChar:
    """Xi*_s = (1/m) sum_{j=1}^{(m-1)/2} j (xi^j - xi^{-j}); odd m only."""
    _, ctab = _cyclic_context(G, s)
    m = ctab.k
    if m % 2 == 0:
        raise ValueError(f"starred element needs odd order, got |s| = {m}")
    coeffs: dict[int, Fraction] = {}
    for j in range(1, (m - 1) // 2 + 1):
        coeffs[j] = coeffs.get(j, Fraction(0)) + Fraction(j, m)
        coeffs[(-j) % m] = coeffs.get((-j) % m, Fraction(0)) - Fraction(j, m)
    return VirtualChar(ctab, coeffs)


def d_char(G: FiniteGroup, s: int) -> VirtualChar:
    """d(s) = -sum_{j=1}^{(m-1)/2} xi^{-j}; odd m only; zero for m = 1."""
    _, ctab = _cyclic_context(G, s)
    m = ctab.k
    if m % 2 == 0:
        raise ValueError(f"d(s) needs odd order, got |s| = {m}")
    return VirtualChar(ctab, {(-j) % m: Fraction(-1)
                              for j in range(1, (m - 1) // 2 + 1)})


def verify_induction_identities(G: FiniteGroup, s: int) -> dict:
    """Both pairings against their induced-character inner-product
    descriptions, plus the difference identity through d(s)."""
    T = CharTable.of(G)
    sub, ctab = _cyclic_context(G, s)
    m = ctab.k
    odd = m % 2 == 1
    ind_xi = induce(xi_char(G, s), sub, T)
    ind_xi_star = induce(xi_star_char(G, s), sub, T) if odd else None
    ind_d = induce(d_char(G, s), sub, T) if odd else None

    rows = []
    for t in range(T.k):
        chi = VirtualChar.irreducible(T, t)
        lhs = pairing(chi, s)
        rhs = ind_xi.inner(chi)
        rows.append({"identity": "pairing equals (Ind Xi, chi)",
                     "chi": f"chi{t}", "lhs": str(lhs), "rhs": str(rhs),
                     "pass": lhs == rhs})
        if odd:
            lhs_s = star_pairing(chi, s)
            rhs_s = ind_xi_star.inner(chi)
            rows.append({"identity": "star pairing equals (Ind Xi*, chi)",
                         "chi": f"chi{t}", "lhs": str(lhs_s),
                         "rhs": str(rhs_s), "pass": lhs_s == rhs_s})
            lhs_d = lhs_s - lhs
            rhs_d = ind_d.inner(chi)
            rows.append({"identity": "pairing difference equals (Ind d, chi)",
                         "chi": f"chi{t}", "lhs": str(lhs_d),
                         "rhs": str(rhs_d), "pass": lhs_d == rhs_d})
    if odd:
        diff_ok = (xi_star_char(G, s) - xi_char(G, s)) == d_char(G, s)
        rows.append({"identity": "Xi* - Xi = d as virtual characters",
                     "chi": "-", "lhs": "-", "rhs": "-", "pass": diff_ok})
    return {"suite": "stickelberger induction identities",
            "group": G.label, "element": G.names[s],
            "element_order": m, "identities": rows,
            "pass": all(r["pass"] for r in rows)}


def verify_adams_identities(G: FiniteGroup, s: int) -> dict:
    """The second-Adams descriptions: on <s>, (Xi*, xi^j) matches
    (Xi, xi^{2j} - xi^j) computed two ways; on G, the starred pairing is
    <psi_2(chi) - chi, s>."""
    T = CharTable.of(G)
    _, ctab = _cyclic_context(G, s)
    m = ctab.k
    if m % 2 == 0:
        raise ValueError("Adams identities need odd-order s")
    xs = xi_star_char(G, s)
    x = xi_char(G, s)
    rows = []
    for j in range(1, m):
        xi_j = VirtualChar.irreducible(ctab, j)
        lhs = xs.inner(xi_j)
        mid = x.inner(VirtualChar.irreducible(ctab, (2 * j) % m) - xi_j)
        rhs = x.inner(xi_j.adams(2) - xi_j)
        rows.append({"identity": "(Xi*, xi^j) = (Xi, xi^2j - xi^j)",
                     "chi": f"xi^{j}", "lhs": str(lhs), "rhs": str(mid),
                     "pass": lhs == mid == rhs})
    for t in range(T.k):
        chi = VirtualChar.irreducible(T, t)
        lhs = star_pairing(chi, s)
        rhs = pairing(chi.adams(2) - chi, s)
        rows.append({"identity": "star pairing = <psi_2 chi - chi, s>",
                     "chi": f"chi{t}", "lhs": str(lhs), "rhs": str(rhs),
                     "pass": lhs == rhs})
    return {"suite": "stickelberger adams identities",
            "group": G.label, "element": G.names[s],
            "element_order": m, "identities": rows,
            "pass": all(r["pass"] for r in rows)}


def pairing_table(G: FiniteGroup, s: int, star: bool = False) -> dict:
    """Per-irreducible pairing values, as served by the CLI."""
    T = CharTable.of(G)
    m = G.element_order(s)
    fn = star_pairing if star else pairing
    rows = [{"chi": f"chi{t}", "degree": T.degrees[t],
             "value": str(fn(VirtualChar.irreducible(T, t), s))}
            for t in range(T.k)]
    return {"suite": "stickelberger pairing table",
            "group": G.label, "element": G.names[s],
            "element_order": m, "star": star, "rows": rows}
