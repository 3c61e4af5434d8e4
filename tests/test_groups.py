"""Finite groups via Cayley tables and the preset library."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tamekit.groups import (FiniteGroup, PRESET_NAMES, ascii_int,
                            cycle_string, parse_cycles, preset)


def test_parse_cycles():
    assert all(p == i for i, p in enumerate(parse_cycles("()")))
    assert parse_cycles("(1 2 3)") == (1, 2, 0)
    assert parse_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 2 2)")
    # a point in two cycles is not a permutation
    with pytest.raises(ValueError, match="point 1 appears in two cycles"):
        parse_cycles("(1 2)(1 3)")
    with pytest.raises(ValueError, match="point 2 appears in two cycles"):
        parse_cycles("(1 2)(2 3)")
    # a degree fixes the number of points and bounds them
    assert parse_cycles("(1 2)", 4) == (1, 0, 2, 3)
    assert parse_cycles("()", 3) == (0, 1, 2)
    with pytest.raises(ValueError, match="point 5 exceeds degree 4"):
        parse_cycles("(1 2)(3 5)", 4)
    # points are ASCII decimals, though int() reads these as 1 2 3 or 20
    for text in ("(\u0661 \u0662 \u0663)", "(1 2_0)", "(1 \uff12)"):
        with pytest.raises(ValueError, match="^not an integer"):
            parse_cycles(text)
    # the text is read as given: only "()" is the identity, and nothing
    # is stripped from around the cycles
    for text in ("", " ", " ()", " (1 2 3) ", "(1 2 3) ", "1 2 3"):
        with pytest.raises(ValueError, match="^bad cycle notation$"):
            parse_cycles(text)
    # a message quotes at most 8 characters of a cycle or a point
    with pytest.raises(ValueError) as info:
        parse_cycles("(" + " ".join(["1"] * 5000) + ")")
    assert str(info.value) == "bad cycle: (1 1 1 1 ...)"
    with pytest.raises(ValueError) as info:
        parse_cycles("(1 2 " + "9" * 4000 + ")", 360)
    assert str(info.value) == "point 99999999... exceeds degree 360"
    with pytest.raises(ValueError) as info:
        parse_cycles("(1 2 " + "x" * 5000 + ")")
    assert str(info.value) == "not an integer: 'xxxxxxxx...'"


def test_cycle_string_round_trip():
    for text in ["()", "(1 2)", "(1 2 3)", "(1 3)(2 4)", "(1 2 3 4 5 6 7)"]:
        assert cycle_string(parse_cycles(text)) == text


def test_preset_orders_and_labels():
    expected = {"C3": 3, "C5": 5, "C7": 7, "C9": 9, "S3": 6, "D5": 10,
                "A4": 12, "Q8": 8, "F21": 21}
    assert set(PRESET_NAMES) == set(expected)
    for name, order in expected.items():
        G = preset(name)
        assert G.n == order
        assert G.label == name
    assert preset("C12").n == 12 and preset("C12").label == "C12"


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="A4"):
        preset("SL2")
    with pytest.raises(ValueError, match="^unknown group preset 'xxxxxxxx"
                                         r"\.\.\.'; known: C<n>, A4"):
        preset("x" * 5000)
    # a name longer than C360 is past the cap, and 5,000 digits are past
    # int()'s limit on digits, whose message must not come first
    for name, shown in (("C0", "0"), ("C361", "361"), ("C1000", "1000"),
                        ("C" + "1" * 5000, "11111111...")):
        with pytest.raises(ValueError) as info:
            preset(name)
        assert str(info.value) == f"bad cyclic order {shown}"


def test_ascii_int_reads_a_sign_and_ascii_digits_only():
    assert [ascii_int(t) for t in ("0", "13", "-13", "0013")] == \
        [0, 13, -13, 13]
    for text in ("1_3", " 1", "1 ", "13\n", "+13", "\u0663", "\uff11",
                 "", "-", "1.0"):
        with pytest.raises(ValueError, match="^not an integer"):
            ascii_int(text)
    # past int()'s limit on digits, whose own message would come first
    with pytest.raises(ValueError) as info:
        ascii_int("1" * 5000)
    assert str(info.value) == "not an integer: '11111111...'"




# a leading zero, an Arabic-Indic 3, a superscript 3, a fullwidth 3, a
# sign, spaces, an underscore, a lower-case c and no digits at all
@pytest.mark.parametrize("name", ["C05", "C00", "C\u0663", "C\u00b3",
                                  "C\uff13", "C+3", "C 3", "C3 ", "C1_0",
                                  "c3", "C"])
def test_cyclic_names_are_ascii_digits_without_a_leading_zero(name):
    with pytest.raises(ValueError, match="^unknown group preset"):
        preset(name)


def test_identity_and_inverses():
    for name in PRESET_NAMES:
        G = preset(name)
        for g in range(G.n):
            assert G.mul(0, g) == g == G.mul(g, 0)
            assert G.mul(g, G.inv[g]) == 0


def test_associativity_sampled():
    rng = random.Random(3)
    for name in ("S3", "A4", "Q8", "F21"):
        G = preset(name)
        for _ in range(40):
            a, b, c = (rng.randrange(G.n) for _ in range(3))
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def _corrupt(name, i, j, v):
    """A copy of the preset's Cayley table with entry (i, j) set to v."""
    table = [row[:] for row in preset(name).table]
    table[i][j] = v
    return table


@st.composite
def _corrupted_tables(draw):
    """A preset's table with one entry changed to another value in -1..n,
    so that entries outside 0..n-1 are drawn too."""
    name = draw(st.sampled_from(["S3", "D5", "A4", "Q8", "F21"]))
    G = preset(name)
    i, j = draw(st.integers(0, G.n - 1)), draw(st.integers(0, G.n - 1))
    v = draw(st.integers(-1, G.n).filter(lambda v: v != G.table[i][j]))
    return _corrupt(name, i, j, v)


# A group table differs from every other group table in more than one entry
# (two distinct Latin squares differ in at least four), and associativity, a
# two-sided identity and right inverses make a group, so each corrupted
# table fails one of the checked laws.
@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(_corrupted_tables())
@example(_corrupt("S3", 1, 2, 6))  # outside 0..5
@example(_corrupt("D5", 0, 3, 4))  # the identity row
@example(_corrupt("Q8", 2, 3, 2))  # row 2 loses its only 0
@example(_corrupt("S3", 2, 1, 3))  # associativity
def test_corrupted_cayley_table_is_rejected(table):
    with pytest.raises(ValueError) as info:
        FiniteGroup(table)
    message = str(info.value)
    triple = re.fullmatch(r"not associative at triple \((\d+), (\d+), (\d+)\)",
                          message)
    if triple:
        a, b, c = map(int, triple.groups())
        assert table[table[a][b]][c] != table[a][table[b][c]], message
    else:
        assert re.fullmatch(r"row \d+ is not closed over 0\.\.\d+"
                            r"|index 0 is not a two-sided identity"
                            r"|element \d+ has no inverse", message), message


def test_element_orders_and_exponent():
    S3 = preset("S3")
    assert sorted(S3.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    assert S3.exponent() == 6
    assert preset("Q8").exponent() == 4
    assert preset("A4").exponent() == 6
    assert preset("F21").exponent() == 21


def test_power_and_conjugate():
    G = preset("S3")
    s = G.names.index("(1 2 3)")
    t = G.names.index("(1 2)")
    assert G.power(s, 3) == 0
    assert G.power(s, -1) == G.inv[s]
    # conjugating a 3-cycle by a transposition inverts it
    assert G.conjugate(t, s) == G.inv[s]


def test_abelian_flags():
    def is_abelian(G):
        return all(G.table[i][j] == G.table[j][i]
                   for i in range(G.n) for j in range(i))

    assert is_abelian(preset("C9"))
    assert not is_abelian(preset("S3"))
    assert not is_abelian(preset("Q8"))


def test_conjugacy_class_sizes():
    sizes = lambda G: sorted(len(c) for c in G.conjugacy_classes())
    assert sizes(preset("S3")) == [1, 2, 3]
    assert sizes(preset("A4")) == [1, 3, 4, 4]
    assert sizes(preset("Q8")) == [1, 1, 2, 2, 2]
    assert sizes(preset("D5")) == [1, 2, 2, 5]
    assert sizes(preset("F21")) == [1, 3, 3, 7, 7]


def test_subgroup_closure_and_transversal():
    G = preset("S3")
    s = G.names.index("(1 2 3)")
    sub = G.cyclic_subgroup(s)
    assert len(sub) == 3


def test_cyclic_subgroup_object():
    # <s> is presented on the preset C_m by its powers: element i of C_m
    # is s^i, and the inclusion respects multiplication
    G = preset("S3")
    s = G.names.index("(1 2 3)")
    powers = G.cyclic_subgroup(s)
    C3 = preset(f"C{len(powers)}")
    assert C3.n == 3 and len(set(powers)) == 3
    for i in range(C3.n):
        assert powers[i] == G.power(s, i)
        for j in range(C3.n):
            assert powers[C3.mul(i, j)] == G.mul(powers[i], powers[j])


def test_from_generators():
    G = FiniteGroup.from_generators([parse_cycles("(1 2)"),
                                     parse_cycles("(1 2 3)")])
    assert G.n == 6
    assert G.names[0] == "()"


def test_f21_structure():
    # nonabelian of order 21: a 7-cycle normalized by an order-3 element
    G = preset("F21")
    s = next(g for g in range(G.n) if G.element_order(g) == 7)
    t = next(g for g in range(G.n) if G.element_order(g) == 3)
    k = G.conjugate(t, s)
    assert k in (G.power(s, 2), G.power(s, 4))
