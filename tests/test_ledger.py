"""Families of monomial-valued homs over places, and the valuation crux."""

import math
import random
from fractions import Fraction

import pytest

from tamekit.characters import CharTable, VirtualChar
from tamekit.cyclotomic import CycNum
from tamekit.groups import PRESET_NAMES, preset
from tamekit.ledger import (_twist_index, build_f, check_places, crux_check,
                            decompose, norm_restrict, recompose)
from tamekit.localmodel import TameElement
from tamekit.stickelberger import pairing, star_pairing

from reference import coeffs, scaled, tame_pow


def _monomial(num, den=1):
    return TameElement.monomial(Fraction(num, den))


def test_on_virtual_is_multiplicative():
    # The multiplicative extension of a hom to virtual characters: sums of
    # characters map to products of values.
    def on_virtual(f, vc):
        out = TameElement.one()
        for i, c in sorted(coeffs(vc).items()):
            if c.denominator != 1:
                raise ValueError(f"non-integral multiplicity {c}")
            out = out * tame_pow(f[i], int(c))
        return out

    T = CharTable.of(preset("C3"))
    f = (_monomial(1, 3), TameElement.one(), _monomial(-1, 3))
    a = VirtualChar.irreducible(T, 0)
    b = VirtualChar.irreducible(T, 2)
    assert on_virtual(f, a + b) == f[0] * f[2]
    assert on_virtual(f, scaled(a, 2)) == tame_pow(f[0], 2)
    assert on_virtual(f, a - a) == TameElement.one()
    with pytest.raises(ValueError):
        on_virtual(f, scaled(a, Fraction(1, 2)))


def test_place_validation():
    G = preset("S3")
    s3 = G.names.index("(1 2 3)")
    check_places(G, [("v", 7, s3), ("w", 13, s3)])
    with pytest.raises(ValueError, match="place 'v': .* prime power"):
        check_places(G, [("v", 6, s3)])
    with pytest.raises(ValueError, match="must be odd"):
        check_places(G, [("v", 7, G.names.index("(1 2)"))])
    with pytest.raises(ValueError):
        check_places(G, [("v", 9, s3)])  # wild
    with pytest.raises(ValueError, match="prime power up to"):
        check_places(G, [("v", 2 ** 61 - 1, s3)])  # a prime above the bound
    with pytest.raises(ValueError, match="duplicate place label 'v'"):
        check_places(G, [("v", 7, s3), ("v", 13, s3)])


def test_build_f_checks_places_before_any_table(monkeypatch):
    # one check for both rules, run before a character table is built
    def forbidden(*args, **kwargs):
        raise AssertionError("built a table before checking the places")

    monkeypatch.setattr("tamekit.characters.CharTable.of", forbidden)
    G = preset("S3")
    s3 = G.names.index("(1 2 3)")
    with pytest.raises(ValueError, match="duplicate place label 'v'"):
        build_f(G, [("v", 7, s3), ("v", 13, s3)])
    with pytest.raises(ValueError, match="place 'w'"):
        build_f(G, [("v", 7, s3), ("w", 9, s3)])  # wild


def test_recompose_rejects_a_shared_place():
    G = preset("C3")
    f = build_f(G, [("a", 7, 1), ("b", 13, 1)])
    g = build_f(G, [("a", 13, 2)])
    assert recompose([{"a": f["a"]}, {"b": f["b"]}]) == f
    with pytest.raises(ValueError, match="place 'a' appears in two factors"):
        recompose([f, g])


def test_build_f_exponents():
    G = preset("C3")
    T = CharTable.of(G)
    f = build_f(G, [("v", 7, 1)])
    q, s, hom = f["v"]
    assert (q, s, len(hom)) == (7, 1, T.k)
    for i in range(T.k):
        chi = VirtualChar.irreducible(T, i)
        want = star_pairing(chi, 1) - pairing(chi, 1)
        assert hom[i] == TameElement.monomial(want)
    exps = sorted(x.monomial_parts()[0] for x in hom)
    assert exps == [Fraction(-1), Fraction(0), Fraction(0)]
    trivial = next(t for t in range(T.k)
                   if all(v == CycNum.from_rational(1) for v in T.values[t]))
    assert hom[trivial] == TameElement.one()


def test_build_f_standard_character_of_s3():
    G = preset("S3")
    T = CharTable.of(G)
    s = G.names.index("(1 2 3)")
    f = build_f(G, [("v", 7, s)])
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert f["v"][2][two] == TameElement.monomial(Fraction(-1))


def test_decompose_recompose_round_trip():
    G = preset("C5")
    f = build_f(G, [("x", 11, 1), ("y", 31, 2), ("z", 41, 3)])
    parts = decompose(f)
    assert [list(p) for p in parts] == [["x"], ["y"], ["z"]]
    assert recompose(parts) == f
    with pytest.raises(ValueError):
        recompose([])


def test_norm_restrict_identity_and_twists():
    G = preset("C7")
    T = CharTable.of(G)
    f = build_f(G, [("v", 29, 1)])["v"][2]
    assert norm_restrict(T, f, [1]) == f
    nested = norm_restrict(T, norm_restrict(T, f, [1, 2]), [1, 3])
    flat = norm_restrict(T, f, [1, 3, 2, 6])
    assert nested == flat
    with pytest.raises(ValueError):
        norm_restrict(T, f, [])
    with pytest.raises(ValueError):
        norm_restrict(T, f, [7])  # not coprime to the exponent


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
    def times(f, g):
        return tuple(x * y for x, y in zip(f, g))

    def random_hom(rng, T, spread, density):
        return tuple(_monomial(rng.randrange(-spread, spread + 1), 7)
                     if rng.random() < density else TameElement.one()
                     for _ in range(T.k))

    rng = random.Random(29)
    G = preset("C7")
    T = CharTable.of(G)
    for _ in range(20):
        f = random_hom(rng, T, 3, 0.7)
        g = random_hom(rng, T, 2, 0.5)
        ks = [k for k in (1, 2, 3) if rng.random() < 0.8] or [1]
        # compatible with elementwise products
        assert norm_restrict(T, times(f, g), ks) == \
            times(norm_restrict(T, f, ks), norm_restrict(T, g, ks))


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
    with pytest.raises(ValueError, match="order 7 does not divide 11 - 1"):
        crux_check(11, 7)
