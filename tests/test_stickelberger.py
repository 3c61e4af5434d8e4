"""Fractional-part pairings and their induction/Adams identities."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tamekit.characters import CharTable, VirtualChar, cyclic_table
from tamekit.groups import PRESET_NAMES, FiniteGroup, preset
from tamekit.ledger import build_f
from tamekit.localmodel import verify_factorization
from tamekit.stickelberger import (_order_chars, check_tame, pairing,
                                   pairing_table, star_pairing,
                                   verify_adams_identities,
                                   verify_induction_identities)

from reference import coeffs, restrict, scaled


def _cyclic_rows(m):
    T = cyclic_table(m)
    return T, [VirtualChar.irreducible(T, j) for j in range(T.k)]


def test_pairing_values_on_c3():
    T, rows = _cyclic_rows(3)
    # row j sends the generator to zeta_3^j
    assert [pairing(rows[j], 1) for j in range(3)] == \
        [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert [star_pairing(rows[j], 1) for j in range(3)] == \
        [Fraction(0), Fraction(1, 3), Fraction(-1, 3)]


def test_pairing_at_identity_is_zero():
    for name in ("S3", "Q8", "F21"):
        T = CharTable.of(preset(name))
        for t in range(T.k):
            chi = VirtualChar.irreducible(T, t)
            assert pairing(chi, 0) == 0
            assert star_pairing(chi, 0) == 0


def test_pairing_is_additive():
    G = preset("F21")
    T = CharTable.of(G)
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    a = VirtualChar.irreducible(T, 3)
    b = scaled(VirtualChar.irreducible(T, 4), -2)
    assert pairing(a + b, s) == pairing(a, s) + pairing(b, s)
    assert star_pairing(a + b, s) == star_pairing(a, s) + star_pairing(b, s)


def test_star_pairing_rejects_even_order():
    G = preset("S3")
    T = CharTable.of(G)
    t = G.names.index("(1 2)")
    with pytest.raises(ValueError, match="must be odd"):
        star_pairing(VirtualChar.irreducible(T, 0), t)


def test_odd_order_rule_has_one_message():
    # every entry point that needs an odd |s| rejects (1 2) through
    # check_tame, with its text
    G = preset("S3")
    T = CharTable.of(G)
    t = G.names.index("(1 2)")
    entries = [
        lambda: check_tame(G, t, None),
        lambda: star_pairing(VirtualChar.irreducible(T, 0), t),
        lambda: verify_adams_identities(G, t),
        lambda: pairing_table(G, t, star=True),
        lambda: verify_factorization(G, t),
    ]
    texts = set()
    for entry in entries:
        with pytest.raises(ValueError) as info:
            entry()
        texts.add(str(info.value))
    assert texts == {"|s| = |(1 2)| = 2 must be odd"}
    with pytest.raises(ValueError) as info:
        build_f(G, [("v7", 7, t)])  # a place also names its label
    assert str(info.value) == "place 'v7': |s| = |(1 2)| = 2 must be odd"


def test_star_window_is_symmetric():
    # pairing* of a character and of its conjugate are negatives
    T, rows = _cyclic_rows(7)
    for j in range(1, 7):
        assert star_pairing(rows[j], 1) == -star_pairing(rows[7 - j], 1)
    assert star_pairing(rows[0], 1) == 0


def test_xi_and_d_character_pairings():
    # pairing against the xi elements, after restriction to <s>
    G = preset("F21")
    T = CharTable.of(G)
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    ctab, xi, xis, d = _order_chars(7)
    for t in range(T.k):
        chi = VirtualChar.irreducible(T, t)
        res = restrict(chi, G.cyclic_subgroup(s), ctab)
        assert res.inner(xi) == pairing(chi, s)
        assert res.inner(xis) == star_pairing(chi, s)
        assert res.inner(d) == star_pairing(chi, s) - pairing(chi, s)


def test_induction_identities_all_presets():
    for name in PRESET_NAMES:
        G = preset(name)
        for s in range(G.n):
            rep = verify_induction_identities(G, s)
            assert rep["pass"], (name, s)


@pytest.mark.parametrize("name, order, failing", [
    ("F21", 7, {"chi3": 2, "chi4": 2}),
    ("C9", 9, {f"chi{t}": 3 for t in (0, 2, 3, 4, 5, 6, 7, 8)})])
def test_induction_identities_need_the_power_order(name, order, failing,
                                                   monkeypatch):
    # element i of C_m is s^i; presented by the powers of s^-1 instead,
    # <s> induces the conjugate characters and the identities fail
    G = preset(name)
    assert G.element_order(1) == order
    assert verify_induction_identities(G, 1)["pass"]
    powers = FiniteGroup.cyclic_subgroup
    monkeypatch.setattr(FiniteGroup, "cyclic_subgroup",
                        lambda self, s: powers(self, self.inv[s]))
    rows = verify_induction_identities(G, 1)["identities"]
    assert Counter(r["chi"] for r in rows if not r["pass"]) == failing


def test_adams_identities_odd_order_elements():
    for name in PRESET_NAMES:
        G = preset(name)
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            rep = verify_adams_identities(G, s)
            assert rep["pass"], (name, s)


def test_adams_identities_reject_even_order():
    G = preset("S3")
    with pytest.raises(ValueError, match="must be odd"):
        verify_adams_identities(G, G.names.index("(1 2)"))


def test_pairing_table_report():
    import json
    G = preset("S3")
    s = G.names.index("(1 2 3)")
    rep = pairing_table(G, s, star=True)
    assert rep["group"] == "S3"
    assert rep["element_order"] == 3
    assert len(rep["rows"]) == 3
    json.dumps(rep)


_GROUPS = [preset(name) for name in PRESET_NAMES]


@settings(max_examples=50, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_multiplicities_match_restriction(data):
    G = data.draw(st.sampled_from(_GROUPS))
    T = CharTable.of(G)
    s = data.draw(st.integers(0, G.n - 1))
    # rational coefficients with mixed denominators
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    combo = st.lists(coeff, min_size=T.k, max_size=T.k)
    a = VirtualChar(T, dict(enumerate(data.draw(combo))))
    b = VirtualChar(T, dict(enumerate(data.draw(combo))))
    powers = G.cyclic_subgroup(s)
    ctab = _order_chars(len(powers))[0]
    res = restrict(a, powers, ctab)
    acc, den = a.multiplicity_sums(s)
    assert [Fraction(x, den) for x in acc] == \
        [coeffs(res).get(u, Fraction(0)) for u in range(ctab.k)]
    assert pairing(a + b, s) == pairing(a, s) + pairing(b, s)
    if ctab.k % 2:
        assert star_pairing(a + b, s) == \
            star_pairing(a, s) + star_pairing(b, s)
