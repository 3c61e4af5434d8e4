"""Representing homomorphisms on characters, place by place, as plain data.

A hom on one character table is a tuple of k tame monomials, indexed like
the table's rows: the exact shadow of a homomorphism on the full character
ring, extended multiplicatively.  A family is a dict {label: (q, s, hom)},
one hom per labelled place, each place carrying its residue size q_v and
its ramification element s_v.  `check_places` states the rules a family's
places keep, once for the package: distinct labels, and each place tame
(`check_tame`).  The distinguished family built here is

    f_v(chi) = pi_v ^ <psi2 chi - 2 chi, s_v>

whose exponent also equals <chi, s_v>* - <chi, s_v>.  decompose splits a
family into single-place factors and recompose joins factors on disjoint
places back, an exact round trip.  norm_restrict forms the
transversal-twisted product implementing restriction of scalars on values.

crux_check ties the threads together p-adically: for the cyclic group of
odd order e and a prime p = 1 mod e, some identification of its character
group with the order-e characters of F_p^* must make the lambda-adic
valuation of every adjusted Jacobi sum J*(chi) equal to

    (p - 1) * (<chi, s>* - <chi, s>).

The valuation of J* is computed as v(tau(chi^2)) - 2 v(tau(chi)) so that
only integral Gauss sums ever meet the p-adic embedding.
"""

from __future__ import annotations

from math import gcd

from .characters import CharTable, VirtualChar, cyclic_table
from .gaussjacobi import MultChar, check_modulus, gauss_sum
from .groups import FiniteGroup
from .localmodel import TameElement, frobenius_action
from .padic import lambda_valuation
from .stickelberger import check_tame, pairing, star_pairing


def check_places(G: FiniteGroup, places: list[tuple[str, int, int]]) -> None:
    """ValueError unless the (label, q, s) places have distinct labels and
    `check_tame` accepts each (s, q)."""
    seen = set()
    for label, q, s in places:
        if label in seen:
            raise ValueError(f"duplicate place label {label!r}")
        seen.add(label)
        try:
            check_tame(G, s, q)
        except ValueError as ex:
            raise ValueError(f"place {label!r}: {ex}") from None


def build_f(G: FiniteGroup, places: list[tuple[str, int, int]]) -> dict:
    """The family f_v(chi) = pi^<psi2 chi - 2 chi, s_v> at each declared
    place, in the order given; ValueError unless `check_places` passes."""
    check_places(G, places)
    table = CharTable.of(G)
    chars = [VirtualChar.irreducible(table, i) for i in range(table.k)]
    return {label: (q, s, tuple(
                TameElement.monomial(pairing(chi.adams(2) - chi - chi, s))
                for chi in chars))
            for label, q, s in places}


def family_dict(G: FiniteGroup, f: dict) -> dict:
    """The family as a report value."""
    return {label: {"q": q, "s": G.names[s],
                    "hom": {str(i): x.to_dict() for i, x in enumerate(hom)}}
            for label, (q, s, hom) in f.items()}


def decompose(f: dict) -> list[dict]:
    """Single-place factors, in label order."""
    return [{label: f[label]} for label in sorted(f)]


def recompose(parts: list[dict]) -> dict:
    """The family on the places of the factors; exact inverse of
    decompose.  ValueError when there are no factors or a place appears
    in two."""
    if not parts:
        raise ValueError("nothing to recompose")
    out = {}
    for part in parts:
        for label, place in part.items():
            if label in out:
                raise ValueError(f"place {label!r} appears in two factors")
            out[label] = place
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


def norm_restrict(table: CharTable, hom: tuple, twists: list[int]) -> tuple:
    """Product over the transversal of the twisted homs on table.

    The twist k sends chi to the value of hom at sigma_k . chi, conjugated
    back by k; a singleton transversal [1] is the identity.
    """
    if not twists:
        raise ValueError("empty transversal")
    values = []
    for i in range(table.k):
        acc = TameElement.one()
        for k in twists:
            acc = acc * frobenius_action(hom[_twist_index(table, i, k)], k)
        values.append(acc)
    return tuple(values)


def check_crux(p: int, e: int) -> None:
    """ValueError unless e is odd and positive and `check_modulus(p, e)`
    passes: p a prime up to PRIME_CAP with e | p - 1."""
    if e < 1 or e % 2 == 0:
        raise ValueError(f"order e = {e} must be odd and positive")
    check_modulus(p, e)


def crux_check(p: int, e: int) -> dict:
    """Match lambda-adic J* valuations against pairing differences.

    Quantifies existentially over the group isomorphisms from the
    character group of C_e to the order-e characters of F_p^* (one per
    unit u mod e); each must be tested on every character.  Valuations
    are exact: v(J*) = v(tau(chi^2)) - 2 v(tau(chi)), and the target is
    (p-1)(<chi,s>* - <chi,s>).  Raises ValueError unless `check_crux`
    passes.
    """
    check_crux(p, e)
    s = 1 % e
    table = cyclic_table(e)
    rhs = {}
    for j in range(e):
        chi = VirtualChar.irreducible(table, j)
        r = (p - 1) * (star_pairing(chi, s) - pairing(chi, s))
        rhs[j] = int(r)

    val_cache: dict[tuple[int, int], int] = {}

    def tau_valuation(chi: MultChar) -> int:
        key = chi.reduced()
        if key not in val_cache:
            val_cache[key] = lambda_valuation(gauss_sum(chi), p)
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
