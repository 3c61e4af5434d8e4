"""Placed families of monomial-valued homs and the valuation crux."""

import math
import random
from fractions import Fraction

import pytest

from tamekit.characters import CharTable, VirtualChar
from tamekit.groups import PRESET_NAMES, preset
from tamekit.ledger import (Place, PlacedHom, ReprHom, build_f, crux_check,
                            _twist_index, decompose, norm_restrict,
                            recompose)
from tamekit.localmodel import TameElement
from tamekit.stickelberger import pairing, star_pairing


def _monomial(num, den=1, coeff=1):
    return TameElement.monomial(Fraction(num, den), coeff)


def test_repr_hom_defaults_and_validation():
    T = CharTable.of(preset("C3"))
    f = ReprHom(T, {0: _monomial(1, 3)})
    assert f.value(0) == _monomial(1, 3)
    assert f.value(1) == TameElement.one()
    assert ReprHom.trivial(T).is_trivial()
    with pytest.raises(ValueError):
        ReprHom(T, {0: TameElement.zero()})


def test_on_virtual_is_multiplicative():
    T = CharTable.of(preset("C3"))
    f = ReprHom(T, {0: _monomial(1, 3), 2: _monomial(-1, 3)})
    a = VirtualChar.irreducible(T, 0)
    b = VirtualChar.irreducible(T, 2)
    assert f.on_virtual(a + b) == f.value(0) * f.value(2)
    assert f.on_virtual(a.scale(2)) == f.value(0) ** 2
    assert f.on_virtual(a - a) == TameElement.one()
    with pytest.raises(ValueError):
        f.on_virtual(a.scale(Fraction(1, 2)))


def test_repr_hom_product_and_equality():
    T = CharTable.of(preset("C3"))
    f = ReprHom(T, {0: _monomial(1, 3)})
    g = ReprHom(T, {0: _monomial(2, 3), 1: _monomial(1)})
    fg = f * g
    assert fg.value(0) == _monomial(1)
    assert fg.value(1) == _monomial(1)
    assert fg.value(2) == TameElement.one()
    assert f * ReprHom.trivial(T) == f
    other = CharTable.of(preset("C5"))
    with pytest.raises(ValueError):
        f * ReprHom.trivial(other)


def test_place_validation():
    G = preset("S3")
    T = CharTable.of(G)
    hom = ReprHom.trivial(T)
    s3 = G.names.index("(1 2 3)")
    Place("v", 7, s3, hom)
    with pytest.raises(ValueError):
        Place("v", 6, s3, hom)  # not a prime power
    with pytest.raises(ValueError):
        Place("v", 7, G.names.index("(1 2)"), hom)  # even order
    with pytest.raises(ValueError):
        Place("v", 9, s3, hom)  # wild


def test_placed_hom_structure():
    G = preset("C3")
    T = CharTable.of(G)
    h1 = ReprHom(T, {0: _monomial(1, 3)})
    h2 = ReprHom(T, {2: _monomial(2, 3)})
    f = PlacedHom(T, [Place("a", 7, 1, h1), Place("b", 13, 1, h2)])
    assert f.labels() == ["a", "b"]
    assert f.hom("a") == h1
    assert f.hom("zz").is_trivial()
    with pytest.raises(ValueError):
        PlacedHom(T, [Place("a", 7, 1, h1), Place("a", 13, 1, h2)])
    g = PlacedHom(T, [Place("a", 7, 1, h2)])
    prod = f * g
    assert prod.hom("a") == h1 * h2
    assert prod.hom("b") == h2
    # a trivial hom at an extra place does not affect equality
    g2 = PlacedHom(T, [Place("a", 7, 1, h1), Place("b", 13, 1, h2),
                       Place("c", 5, 0, ReprHom.trivial(T))])
    assert f == g2


def test_placed_hom_merge_conflicts():
    T = CharTable.of(preset("C3"))
    h = ReprHom(T, {0: _monomial(1, 3)})
    f = PlacedHom(T, [Place("a", 7, 1, h)])
    g = PlacedHom(T, [Place("a", 13, 1, h)])
    with pytest.raises(ValueError):
        f * g  # same label, different residue data


def test_build_f_exponents():
    G = preset("C3")
    T = CharTable.of(G)
    f = build_f(G, [("v", 7, 1)])
    hom = f.hom("v")
    for i in range(T.k):
        chi = VirtualChar.irreducible(T, i)
        want = star_pairing(chi, 1) - pairing(chi, 1)
        assert hom.value(i) == TameElement.monomial(want)
    exps = sorted(hom.value(i).monomial_parts()[0] for i in range(T.k))
    assert exps == [Fraction(-1), Fraction(0), Fraction(0)]
    assert hom.value(T.trivial_index()) == TameElement.one()


def test_build_f_standard_character_of_s3():
    G = preset("S3")
    T = CharTable.of(G)
    s = G.names.index("(1 2 3)")
    f = build_f(G, [("v", 7, s)])
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert f.hom("v").value(two) == TameElement.monomial(Fraction(-1))


def test_decompose_recompose_round_trip():
    G = preset("C5")
    f = build_f(G, [("x", 11, 1), ("y", 31, 2), ("z", 41, 3)])
    parts = decompose(f)
    assert len(parts) == 3
    assert all(len(p.labels()) == 1 for p in parts)
    assert recompose(parts) == f
    with pytest.raises(ValueError):
        recompose([])


def test_norm_restrict_identity_and_twists():
    G = preset("C7")
    T = CharTable.of(G)
    f = build_f(G, [("v", 29, 1)]).hom("v")
    assert norm_restrict(f, [1]) == f
    nested = norm_restrict(norm_restrict(f, [1, 2]), [1, 3])
    flat = norm_restrict(f, [1, 3, 2, 6])
    assert nested == flat
    with pytest.raises(ValueError):
        norm_restrict(f, [])
    with pytest.raises(ValueError):
        norm_restrict(f, [7])  # not coprime to the exponent


def test_twist_index_matches_galois_action():
    for name in PRESET_NAMES + ("C15", "C21"):
        T = CharTable.of(preset(name))
        for k in range(1, T.exponent):
            if math.gcd(k, T.exponent) != 1:
                continue
            for i in range(T.k):
                twisted = [v.galois_apply(k) for v in T.values[i]]
                assert T.values[_twist_index(T, i, k)] == twisted


def test_norm_restrict_randomized():
    rng = random.Random(29)
    G = preset("C7")
    T = CharTable.of(G)
    for _ in range(20):
        vals = {i: _monomial(rng.randrange(-3, 4), 7) for i in range(T.k)
                if rng.random() < 0.7}
        f = ReprHom(T, vals)
        g = ReprHom(T, {i: _monomial(rng.randrange(-2, 3), 7)
                        for i in range(T.k) if rng.random() < 0.5})
        ks = [k for k in (1, 2, 3) if rng.random() < 0.8] or [1]
        # compatible with products place by place
        assert norm_restrict(f * g, ks) == \
            norm_restrict(f, ks) * norm_restrict(g, ks)


def test_crux_reports():
    rep = crux_check(7, 3)
    assert rep["pass"]
    assert rep["identifications"] == [1]
    assert [row["lhs_val"] for row in rep["per_chi"]] == [0, 0, -6]
    rep = crux_check(11, 5)
    assert rep["pass"]
    assert [row["lhs_val"] for row in rep["per_chi"]] == [0, 0, 0, -10, -10]
    with pytest.raises(ValueError):
        crux_check(11, 4)
    with pytest.raises(ValueError):
        crux_check(11, 7)  # 7 does not divide 10
