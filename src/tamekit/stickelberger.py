"""Stickelberger pairings on characters and their inner-product descriptions.

For s in G of order m and chi a character of G, the restriction of chi to
<s> is a sum of powers of the distinguished linear character xi with
xi(s^i) = zeta_m^i (the root zeta_m being zeta_{|G|}^{|G|/|s|}, so
everything lives in one compatible system); the multiplicity of xi^r is
that of the eigenvalue zeta_m^r of s, which the character table keeps from
Dixon's method (VirtualChar.multiplicity_sums).  The pairing <chi, s> adds
r/m over the restriction components xi^r with r taken in [0, m); the starred
pairing takes r in the symmetric window [(1-m)/2, (m-1)/2] and only exists
for odd m.  `check_tame` states that odd-order rule, with the rest of the
tame-place rule, once for the package: every starred pairing, centered
ladder and tame place is checked through it.

The verifiers here recompute both pairings through a second, independent
route: induction of the explicit virtual characters

    Xi_s   = (1/m) sum_{j=1}^{m-1} j xi^j
    Xi*_s  = (1/m) sum_{j=1}^{(m-1)/2} j (xi^j - xi^{-j})
    d(s)   = -sum_{j=1}^{(m-1)/2} xi^{-j}

followed by inner products on G, the projections `VirtualChar.from_values`
takes when it decomposes each induced character, and through the second
Adams operation.  Agreement of the routes is the content being certified.

All of this data on <s> depends on the order m alone: in any group, <s>
is its powers on the one preset C_m (`FiniteGroup.cyclic_subgroup`:
element i is s^i), and one context per order holds that group's table
with Xi, Xi* and d(s), so each of them sums its values once and each
psi_2 xi^j is decomposed once.  What depends on s and G, the induction
to G and the multiplicities of G's characters at s, is per element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import check_residue_size
from .characters import CharTable, VirtualChar, cyclic_table, induce
from .groups import FiniteGroup


def check_tame(G: FiniteGroup, s: int, q: int | None,
               t: int | None = None) -> int:
    """|s|; ValueError unless s, with q and t where given, makes a tame
    place: |s| odd, q a residue size that `check_residue_size` accepts
    for |s|, t normalizing <s>, and t s t^-1 = s^q."""
    m = G.element_order(s)
    if m % 2 == 0:
        raise ValueError(f"|s| = |{G.names[s]}| = {m} must be odd")
    if q is not None:
        check_residue_size(q, m)
    if t is not None:
        image = G.conjugate(t, s)
        if image not in G.cyclic_subgroup(s):
            raise ValueError(f"t = {G.names[t]} does not normalize "
                             f"<{G.names[s]}>")
        if q is not None and G.power(s, q) != image:
            raise ValueError(
                f"relation t s t^-1 = s^q fails for s = {G.names[s]}, "
                f"t = {G.names[t]}, q = {q}")
    return m


@lru_cache(maxsize=None)
def _order_chars(m: int) -> tuple:
    """(table, Xi, Xi*, d) on the shared C_m; Xi* and d are None for even
    m.  Kept per order, so each VirtualChar sums its values once and each
    psi_2 xi^j lands once in the table's adams_cache."""
    ctab = cyclic_table(m)
    xi = VirtualChar(ctab, {j: Fraction(j, m) for j in range(1, m)})
    if m % 2 == 0:
        return ctab, xi, None, None
    half = range(1, (m - 1) // 2 + 1)  # xi^-j is xi^(m-j)
    star = {j: Fraction(j, m) for j in half}
    star.update({m - j: Fraction(-j, m) for j in half})
    d = VirtualChar(ctab, {m - j: Fraction(-1) for j in half})
    return ctab, xi, VirtualChar(ctab, star), d


def pairing(vc: VirtualChar, s: int) -> Fraction:
    """<chi, s>: sum of {r/m} over the restriction components xi^r,
    weighted by multiplicity; linear in chi."""
    acc, den = vc.multiplicity_sums(s)
    return Fraction(sum(r * a for r, a in enumerate(acc)), den * len(acc))


def star_pairing(vc: VirtualChar, s: int) -> Fraction:
    """<chi, s>*: as pairing but with exponents in the symmetric window
    [(1-m)/2, (m-1)/2]; ValueError unless `check_tame` accepts s."""
    m = check_tame(vc.table.group, s, None)
    acc, den = vc.multiplicity_sums(s)
    half = (m - 1) // 2
    return Fraction(sum((r if r <= half else r - m) * a
                        for r, a in enumerate(acc)), den * m)


def verify_induction_identities(G: FiniteGroup, s: int) -> dict:
    """Both pairings against their induced-character inner-product
    descriptions, plus the difference identity through d(s)."""
    T = CharTable.of(G)
    powers = G.cyclic_subgroup(s)  # <s> on the shared C_m: i is s^i
    m = len(powers)
    odd = m % 2 == 1
    _, xi, xi_star, d = _order_chars(m)
    ind_xi = induce(xi, powers, T)
    ind_xi_star = induce(xi_star, powers, T) if odd else None
    ind_d = induce(d, powers, T) if odd else None

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
        diff_ok = (xi_star - xi) == d
        rows.append({"identity": "Xi* - Xi = d as virtual characters",
                     "chi": "-", "lhs": "-", "rhs": "-", "pass": diff_ok})
    return {"suite": "stickelberger induction identities",
            "group": G.label, "element": G.names[s],
            "element_order": m, "identities": rows,
            "pass": all(r["pass"] for r in rows)}


def verify_adams_identities(G: FiniteGroup, s: int) -> dict:
    """The second-Adams descriptions: on <s>, (Xi*, xi^j) matches
    (Xi, xi^{2j} - xi^j) computed two ways; on G, the starred pairing is
    <psi_2(chi) - chi, s>.  ValueError unless `check_tame` accepts s."""
    m = check_tame(G, s, None)
    T = CharTable.of(G)
    ctab, x, xs, _ = _order_chars(m)
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
