"""Work that depends on an element's order alone is done once per order:
the cyclic table and Xi, Xi*, d(s) on the shared C_m, each ladder's
sigma-orbit and its eigenfactors.  Everything that depends on the element
or its group is still computed per element."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamekit
from conftest import ORDER_CACHES
from tamekit import characters, localmodel, stickelberger
from tamekit.characters import CharTable, VirtualChar, cyclic_table
from tamekit.cli import SuiteConfig, _dump, _suite_reports
from tamekit.cyclotomic import zeta
from tamekit.groups import FiniteGroup, preset
from tamekit.localmodel import (TameElement, _ladder_monomials,
                                det_resolvend, verify_factorization)
from tamekit.stickelberger import _order_chars, verify_adams_identities

from reference import monomial, resolvend, row_scaled, row_sum, tame_pow


def _f57():
    # F57 = C19 : C3, x -> x + 1 and x -> 7x on Z/19
    return FiniteGroup.from_generators([
        tuple((x + 1) % 19 for x in range(19)),
        tuple(7 * x % 19 for x in range(19))])


def _odd(G):
    return [s for s in range(G.n) if G.element_order(s) % 2 == 1]


def _ladders(orders):
    return {(m, start) for m in orders for start in (0, (1 - m) // 2)}


def test_one_dft_per_ladder(cold_order_caches, monkeypatch):
    # each ladder DFT reads the packed rows of cyclic_table(m) once
    table_of = localmodel.cyclic_table
    runs = []

    def counted(m):
        runs.append(m)
        return table_of(m)

    monkeypatch.setattr(localmodel, "cyclic_table", counted)
    orders = set()
    for name in ("C9", "F21"):
        G = preset(name)
        for s in _odd(G):
            assert verify_factorization(G, s)["pass"], (name, s)
            orders.add(G.element_order(s))
    assert orders == {1, 3, 7, 9}
    assert len(runs) == len(_ladders(orders)) == 7
    assert sorted(runs) == sorted(m for m, _ in _ladders(orders))
    assert localmodel._ladder_monomials.cache_info().misses == 7


def test_every_order_cache_is_cleared_by_the_fixture():
    # an lru_cache of these modules left out of ORDER_CACHES would stay
    # warm across cold_order_caches tests; imported caches such as
    # cyclotomic.zeta are not order caches
    for module in (characters, stickelberger, localmodel):
        caches = [f for f in vars(module).values()
                  if hasattr(f, "cache_clear")
                  and f.__module__ == module.__name__]
        assert caches, module
        assert [f for f in caches if f not in ORDER_CACHES] == []


def test_psi2_of_each_xi_power_is_decomposed_once(cold_order_caches,
                                                  monkeypatch):
    from_values = VirtualChar.from_values.__func__
    tables = []

    def counted(cls, table, values):
        tables.append((table, tuple(map(repr, values))))
        return from_values(cls, table, values)

    monkeypatch.setattr(VirtualChar, "from_values", classmethod(counted))
    orders = set()
    for name in ("C9", "F21"):
        G = preset(name)
        CharTable.of(G)
        for s in _odd(G):
            assert verify_adams_identities(G, s)["pass"], (name, s)
            orders.add(G.element_order(s))
    # G's tables are left out, as their psi_2 chi may be kept from an
    # earlier test; on C_m, psi_2 xi^j is decomposed once for each 0 < j < m
    shared = {id(cyclic_table(m)): m for m in orders}
    per_order = [(shared[id(t)], vals) for t, vals in tables
                 if id(t) in shared]
    assert len(set(per_order)) == len(per_order)
    assert sorted(m for m, _ in per_order) == \
        sorted(m for m in orders for _ in range(1, m))


def _of_order(G, m):
    return next(g for g in range(G.n) if G.element_order(g) == m)


def test_elements_of_one_order_share_table_and_xi():
    C7, F21, F57 = preset("C7"), preset("F21"), _f57()
    s = _of_order(F21, 7)
    # <s> is its list of powers, presented on the one preset C7
    assert F21.cyclic_subgroup(s) == [F21.power(s, i) for i in range(7)]
    assert C7.cyclic_subgroup(1) == list(range(7))
    # Xi, Xi* and d(s) live on that one table, once per order
    t = _order_chars(7)[0]
    assert t is cyclic_table(7) and t.group is C7
    assert all(vc.table is t for vc in _order_chars(7)[1:])
    # order 19 in F57 and in C19, order 3 in F57 and in F21
    assert len(F57.cyclic_subgroup(_of_order(F57, 19))) == 19
    assert _order_chars(19)[0] is cyclic_table(19)
    assert cyclic_table(19).group is preset("C19")
    assert len(F57.cyclic_subgroup(_of_order(F57, 3))) == \
        len(F21.cyclic_subgroup(_of_order(F21, 3))) == 3
    assert _order_chars(3)[0].group is preset("C3")


def _direct_dft(G, x, s, done):
    """The rows of F_j = sum_i x[s^i] zeta_m^(ij), term by term.  A pure
    function of the sequence x[s^i], so `done` keeps it by its terms'
    values."""
    seq = [x[g] for g in G.cyclic_subgroup(s)]
    key = repr([sorted((a, c.to_dict()) for a, c in y.items()) for y in seq])
    if key not in done:
        m = len(seq)
        done[key] = [row_sum(*(row_scaled(y, zeta(m, i * j % m))
                               for i, y in enumerate(seq)))
                     for j in range(m)]
    return done[key]


@pytest.mark.parametrize("group", ["F21", "F57"])
def test_eigenfactors_are_the_dft_along_s(group):
    G = _f57() if group == "F57" else preset(group)
    T = CharTable.of(G)
    done = {}
    for s in _odd(G):
        m = G.element_order(s)
        for start in {0, (1 - m) // 2}:
            direct = _direct_dft(G, resolvend(G, s, start), s, done)
            for t in range(T.k):
                chi = VirtualChar.irreducible(T, t)
                acc, den = chi.multiplicity_sums(s)
                assert den == 1
                det = TameElement()
                for f, mult in zip(direct, acc):
                    det = det * tame_pow(monomial(f, m), mult)
                assert det_resolvend(chi, s, start) == det, (s, t)
            factors = _ladder_monomials(m, start)
            assert [{k: c} for k, c in factors] == direct, s


@pytest.mark.parametrize("name", ["C7", "C9", "F21"])
def test_wrong_sigma_on_a_cold_cache_breaks_equivariance(cold_order_caches,
                                                         monkeypatch, name):
    # zeta_D^(2a) in place of zeta_D^a builds every ladder orbit; the check
    # rotates numerators instead of calling sigma_action, so it sees that
    def doubled(row, m):
        return {a: c * zeta(m, 2 * a % m) for a, c in row.items()}

    monkeypatch.setattr(localmodel, "sigma_action", doubled)
    G = preset(name)
    for s in _odd(G):
        report = verify_factorization(G, s)
        moved = G.element_order(s) > 1
        assert report["equivariance"] == {"plain": not moved,
                                          "star": not moved}, s
        assert report["pass"] is not moved


def _group_reports(groups):
    config = SuiteConfig({"groups": groups, "primes": [], "e_values": [],
                          "crux": []})
    return {name: _dump(report) for name, report in _suite_reports(config)
            if name != "ledger-demo"}


def test_group_order_does_not_change_reports(cold_order_caches):
    first = _group_reports(["F21", "C7"])
    second = _group_reports(["C7", "F21"])
    assert len(first) == 6
    assert first == second


def test_default_suite_counts_in_a_fresh_process():
    # 17 ladders: (m, 0) and (m, (1 - m)/2) for the odd orders 1, 3, 5, 7,
    # 9 of the default groups (one ladder at m = 1), and the Kummer offsets
    # 1 and e - 1 for e = 3, 5, 7, 9; the others are shared.  The packed
    # kernel takes 369 `dot` and 289 `combine` calls.
    script = """
import json
from tamekit import cyclotomic, localmodel
from tamekit.cli import SuiteConfig, _suite_reports
counts = {"sums": 0, "sigma": 0}
packed, sigma = cyclotomic._PackedMatrix, localmodel.sigma_action
def counting(fn):
    def wrapper(*args):
        counts["sums"] += 1
        return fn(*args)
    return wrapper
packed.dot, packed.combine = counting(packed.dot), counting(packed.combine)
def counted_sigma(row, m):
    counts["sigma"] += 1
    return sigma(row, m)
localmodel.sigma_action = counted_sigma
assert all(report["pass"] for _, report in _suite_reports(SuiteConfig({})))
counts["dft"] = localmodel._ladder_monomials.cache_info().misses
print(json.dumps(counts))
"""
    src = str(Path(tamekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    counts = json.loads(out.splitlines()[-1])
    assert counts["dft"] == 17
    # one sigma_action per ladder step, sum (m - 1) over the 17 ladders
    assert counts["sigma"] == 80
    assert counts["sums"] <= 710, counts
