"""Character tables, virtual characters, Adams operations, induction."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import tamekit.characters as characters
import tamekit.cyclotomic as cyclotomic
from tamekit.arith import smallest_prime_in_class
from tamekit.characters import (CharTable, VirtualChar, _class_products,
                                 _krylov_poly, _layout, cyclic_table, induce)
from tamekit.cyclotomic import CycNum, _PackedMatrix, zeta
from tamekit.groups import PRESET_NAMES, FiniteGroup, preset
from tamekit.stickelberger import _order_chars

from reference import coeffs, div, minus, restrict, scaled, subgroup, values


def _trivial_index(T):
    return next(t for t in range(T.k)
                if all(v == CycNum.from_rational(1) for v in T.values[t]))


def test_all_presets_certify():
    for name in PRESET_NAMES:
        table = CharTable.of(preset(name))
        cert = table.certify()
        assert cert["pass"], name
        assert table.certification == cert, name
    # `inner` reads coefficients, so it relies on cyclic tables too
    for n in range(3, 16):
        assert cyclic_table(n).certify()["pass"], n


def test_degree_multisets():
    expected = {"S3": [1, 1, 2], "A4": [1, 1, 1, 3], "Q8": [1, 1, 1, 1, 2],
                "D5": [1, 1, 2, 2], "F21": [1, 1, 1, 3, 3],
                "C9": [1] * 9}
    for name, degs in expected.items():
        assert sorted(CharTable.of(preset(name)).degrees) == degs


def test_s3_table_values():
    G = preset("S3")
    T = CharTable.of(G)
    j2 = T.class_of[G.names.index("(1 2)")]
    j3 = T.class_of[G.names.index("(1 2 3)")]
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert T.value(two, j2) == CycNum.from_rational(0)
    assert T.value(two, j3) == CycNum.from_rational(-1)
    tr = _trivial_index(T)
    assert all(T.value(tr, j) == CycNum.from_rational(1) for j in range(T.k))


def test_a4_three_dimensional_character():
    G = preset("A4")
    T = CharTable.of(G)
    three = next(t for t in range(T.k) if T.degrees[t] == 3)
    dbl = T.class_of[G.names.index("(1 2)(3 4)")]
    cyc = T.class_of[G.names.index("(1 2 3)")]
    assert T.value(three, dbl) == CycNum.from_rational(-1)
    assert T.value(three, cyc) == CycNum.from_rational(0)


def test_q8_two_dimensional_character():
    G = preset("Q8")
    T = CharTable.of(G)
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    central = next(g for g in range(G.n) if G.element_order(g) == 2)
    assert T.value(two, T.class_of[central]) == CycNum.from_rational(-2)


def test_d5_rotation_values():
    G = preset("D5")
    T = CharTable.of(G)
    r = next(g for g in range(G.n) if G.element_order(g) == 5)
    j = T.class_of[r]
    twos = [t for t in range(T.k) if T.degrees[t] == 2]
    got = [T.value(t, j) for t in twos]
    # the two classes of rotations carry zeta^k + zeta^-k, k in {1, 2}
    for k in (1, 2):
        assert sum(v == zeta(5, k) + zeta(5, 5 - k) for v in got) == 1


def test_cyclic_table_power_ordering():
    G = preset("C5")
    T = cyclic_table(5)
    assert T.group is G
    for j in range(5):
        for t in range(5):
            assert T.value(j, T.class_of[G.power(1, t)]) == zeta(5, (j * t) % 5)


@pytest.mark.parametrize("m", [1, 9, 15, 109])
def test_cyclic_table_shares_its_eigen_rows_and_certifies(m):
    # one one-hot row per (u, d), d | m and u < d: sigma(m) rows in all,
    # 13 at m = 9 against the m^2 = 81 entries that read them
    T = cyclic_table(m)
    rows = {id(mu) for row in T.eigen for mu in row}
    assert len(rows) == sum(d for d in range(1, m + 1) if m % d == 0)
    assert T.group is preset(f"C{m}") and T.degrees == [1] * m
    assert T.certify()["pass"]


def test_orthonormality_of_irreducibles():
    # by class sums: `inner` itself reads coefficients, assuming this
    for name in PRESET_NAMES:
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        for i, x in enumerate(irr):
            for j, y in enumerate(irr):
                assert _loop_inner(x, y) == int(i == j), (name, i, j)


def test_regular_character_decomposition():
    G = preset("S3")
    T = CharTable.of(G)
    values = [CycNum.from_rational(G.n if j == T.class_of[0] else 0)
              for j in range(T.k)]
    reg = VirtualChar.from_values(T, values)
    for t in range(T.k):
        assert reg.inner(VirtualChar.irreducible(T, t)) == T.degrees[t]


def test_adams_on_linear_characters():
    G = preset("C9")
    T = CharTable.of(G)
    for t in range(T.k):
        chi = VirtualChar.irreducible(T, t)
        psi = chi.adams(2)
        for j in range(T.k):
            assert psi.value(j) == chi.value(T.power_class(j, 2))


def test_adams_composition_sampled():
    rng = random.Random(5)
    for name in ("S3", "Q8", "F21"):
        T = CharTable.of(preset(name))
        for _ in range(8):
            given = {rng.randrange(T.k): Fraction(rng.randrange(-2, 3))
                     for _ in range(2)}
            vc = sum((scaled(VirtualChar.irreducible(T, t), c)
                      for t, c in given.items()),
                     scaled(VirtualChar.irreducible(T, 0), 0))
            a, b = rng.choice([1, 2, 3]), rng.choice([1, 2, 5])
            assert values(vc.adams(a).adams(b)) == values(vc.adams(a * b))


def test_adams_fixes_trivial():
    T = CharTable.of(preset("A4"))
    tr = VirtualChar.irreducible(T, _trivial_index(T))
    assert values(tr.adams(3)) == values(tr)


def test_virtual_arithmetic():
    T = CharTable.of(preset("S3"))
    a = VirtualChar.irreducible(T, 0)
    b = VirtualChar.irreducible(T, 2)
    s = a + b
    one = T.class_of[0]
    assert s.value(one) == a.value(one) + b.value(one)
    assert values(s - b) == values(a)
    assert (a - a).value(one) == 0
    assert scaled(a, 3).value(one) == a.value(one) * 3


def test_induction_of_trivial_is_permutation_character():
    G = preset("S3")
    T = CharTable.of(G)
    powers = G.cyclic_subgroup(G.names.index("(1 2 3)"))
    subT = CharTable.of(preset("C3"))
    ind = induce(VirtualChar.irreducible(subT, _trivial_index(subT)), powers,
                 T)
    with pytest.raises(ValueError, match="inclusion list"):
        induce(VirtualChar.irreducible(subT, 0), powers[:2], T)
    # permutation character on two points: trivial + sign
    assert ind.value(T.class_of[0]).as_rational() == 2
    assert ind.inner(VirtualChar.irreducible(T, _trivial_index(T))) == 1
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert ind.inner(VirtualChar.irreducible(T, two)) == 0


def test_induction_of_nontrivial_linear_gives_degree_two():
    G = preset("S3")
    T = CharTable.of(G)
    powers = G.cyclic_subgroup(G.names.index("(1 2 3)"))
    subT = CharTable.of(preset("C3"))
    xi = next(t for t in range(subT.k) if t != _trivial_index(subT))
    ind = induce(VirtualChar.irreducible(subT, xi), powers, T)
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert values(ind) == values(VirtualChar.irreducible(T, two))


def test_frobenius_reciprocity_all_cyclic_subgroups():
    for name in ("S3", "A4", "D5", "Q8", "F21"):
        G = preset(name)
        T = CharTable.of(G)
        seen = set()
        for s in range(G.n):
            key = frozenset(G.cyclic_subgroup(s))
            if key in seen:
                continue
            seen.add(key)
            powers = G.cyclic_subgroup(s)
            subT = CharTable.of(preset(f"C{len(powers)}"))
            for i in range(subT.k):
                psi = VirtualChar.irreducible(subT, i)
                ind = induce(psi, powers, T)
                for t in range(T.k):
                    chi = VirtualChar.irreducible(T, t)
                    assert ind.inner(chi) == \
                        psi.inner(restrict(chi, powers, subT))


def _induce_by_conjugation(vc, to_parent, T):
    """Reference induction to T's group G, element h of H at to_parent[h]
    in G, one conjugation per x in G:
    Ind f(g) = (1/|H|) sum over x with x g x^-1 in H of f(x g x^-1)."""
    G = T.group
    from_parent = {g: h for h, g in enumerate(to_parent)}
    hvals = values(vc)
    vals = []
    for g in T.reps:
        acc = CycNum.from_rational(0)
        for x in range(G.n):
            hi = from_parent.get(G.conjugate(x, g))
            if hi is not None:
                acc = acc + hvals[vc.table.class_of[hi]]
        vals.append(div(acc, len(to_parent)))
    return VirtualChar.from_values(T, vals)


def _f57():
    """F57 = C19 : C3 from x -> x + 1 and x -> 7x on Z/19."""
    return FiniteGroup.from_generators([
        tuple((x + 1) % 19 for x in range(19)),
        tuple(7 * x % 19 for x in range(19))])


def _induction_cases():
    """(G, inclusion list, the subgroup's table): every cyclic subgroup of
    every preset (among them the C2 <(1 2)> of S3, which is not normal),
    as its powers on the power-ordered table the pairings use; the Klein
    four-group in A4, which is not cyclic; the C19 and C3 of F57."""
    for name in PRESET_NAMES:
        G = preset(name)
        seen = set()
        for s in range(G.n):
            powers = G.cyclic_subgroup(s)
            if frozenset(powers) not in seen:
                seen.add(frozenset(powers))
                yield G, powers, cyclic_table(len(powers))
    A4 = preset("A4")
    klein, to_parent = subgroup(
        A4, [g for g in range(A4.n) if A4.element_order(g) <= 2])
    assert klein.n == 4
    yield A4, to_parent, CharTable.of(klein)
    F57 = _f57()
    # the generators are the first elements after the identity
    assert (F57.element_order(1), F57.element_order(2)) == (19, 3)
    for s in (1, 2):
        powers = F57.cyclic_subgroup(s)
        yield F57, powers, cyclic_table(len(powers))


def test_induce_matches_the_conjugation_loop():
    for G, to_parent, subT in _induction_cases():
        T = CharTable.of(G)
        irr = [VirtualChar.irreducible(subT, i) for i in range(subT.k)]
        mixed = VirtualChar(subT, {i: Fraction(i + 1, subT.k)
                                   for i in range(subT.k)})
        for psi in irr + [mixed, scaled(irr[-1], -2) - irr[0]]:
            ind = induce(psi, to_parent, T)
            ref = _induce_by_conjugation(psi, to_parent, T)
            assert coeffs(ind) == coeffs(ref), (to_parent, psi)
            assert values(ind) == values(ref), (to_parent, psi)


def test_adams_matches_a_direct_decomposition():
    for name in PRESET_NAMES:
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        chars = irr + [scaled(irr[-1], Fraction(-3, 2)) + irr[0],
                       VirtualChar(T, {t: Fraction(t + 1, 3)
                                       for t in range(T.k)})]
        for chi in chars:
            # every k after the first finds the table's cache holding
            # chi's decomposition for another k
            for k in (-1, 0, 2, 3, 5):
                direct = VirtualChar.from_values(
                    T, [chi.value(T.power_class(j, k)) for j in range(T.k)])
                for psi in (chi.adams(k), chi.adams(k)):
                    assert coeffs(psi) == coeffs(direct), (name, chi, k)
                    assert values(psi) == values(direct), (name, chi, k)
    # psi_2 and psi_3 differ on F21's degree-3 characters, so a
    # decomposition served for the wrong k shows
    T = CharTable.of(preset("F21"))
    chi = VirtualChar.irreducible(T, T.degrees.index(3))
    assert chi.adams(2) != chi.adams(3)


def test_virtual_chars_reject_floats():
    T = CharTable.of(preset("S3"))
    chi = VirtualChar.irreducible(T, 0)
    for bad in (0.1, 0.0):
        with pytest.raises(TypeError):
            scaled(chi, bad)
        with pytest.raises(TypeError):
            VirtualChar(T, {0: bad})
    assert coeffs(scaled(chi, Fraction(1, 10))) == {0: Fraction(1, 10)}
    assert coeffs(VirtualChar(T, {0: 2, 1: 0})) == {0: Fraction(2)}


# -- integer VirtualChar arithmetic against a Fraction-dict reference -------

def _ref(coeffs):
    """{t: Fraction} with zero coefficients dropped."""
    return {t: Fraction(c) for t, c in coeffs.items() if c}


def _ref_add(x, y):
    out = dict(x)
    for t, c in y.items():
        out[t] = out.get(t, 0) + c
    return _ref(out)


def _ref_scale(x, r):
    return _ref({t: c * r for t, c in x.items()})


def _ref_multiplicities(T, x, g):
    j = T.class_of[g]
    return [sum((c * T.eigen[t][j][u] for t, c in x.items()), Fraction(0))
            for u in range(len(T.eigen[0][j]))]


RATIONALS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


@settings(max_examples=80, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_integer_arithmetic_matches_a_fraction_dict_reference(data):
    name = data.draw(st.sampled_from(["S3", "Q8", "F21"]))
    T = CharTable.of(preset(name))
    draw = st.dictionaries(st.integers(0, T.k - 1), RATIONALS, max_size=T.k)
    a = data.draw(draw)
    b = a if data.draw(st.booleans()) else data.draw(draw)
    r = data.draw(RATIONALS)
    g = data.draw(st.integers(0, T.group.n - 1))
    x, y = VirtualChar(T, a), VirtualChar(T, b)
    ra, rb = _ref(a), _ref(b)
    results = [(x, ra), (x + y, _ref_add(ra, rb)),
               (x - y, _ref_add(ra, _ref_scale(rb, -1))),
               (-x, _ref_scale(ra, -1)), (scaled(x, r), _ref_scale(ra, r))]
    for vc, ref in results:
        # CycNum's form: k numerators over one positive denominator, in
        # lowest terms, so equal characters have identical fields
        assert len(vc.num) == T.k and vc.den > 0
        assert gcd(vc.den, *vc.num) == 1
        assert coeffs(vc) == ref
        assert vc == VirtualChar(T, ref)
        acc, den = vc.multiplicity_sums(g)
        assert den == lcm(*(c.denominator for c in ref.values()))
        assert [Fraction(u, den) for u in acc] == \
            _ref_multiplicities(T, ref, g)
    assert (x == y) is (ra == rb)
    assert (x + y) - y == x and ((x + y) - y).num == x.num
    assert x.inner(y) == sum((c * rb.get(t, 0) for t, c in ra.items()),
                             Fraction(0))
    assert type(x.inner(y)) is Fraction


def test_irreducibles_are_shared_and_unchanged_by_arithmetic():
    for name in ("S3", "Q8", "F21"):
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        assert all(VirtualChar.irreducible(T, t) is x
                   for t, x in enumerate(irr))
        before = [(x.num, x.den, values(x)) for x in irr]
        a, b = irr[0], irr[-1]
        for vc in (a + b, a - b, -b, scaled(b, Fraction(-3, 2)), b - b,
                   b.adams(2), (a + b).adams(3), scaled(a, 0)):
            values(vc)
            a.inner(vc)
            vc.multiplicity_sums(1)
        assert [(x.num, x.den, values(x)) for x in irr] == before
        assert all(x._row() is T.values[t] for t, x in enumerate(irr))


def test_restriction_values_match():
    G = preset("A4")
    T = CharTable.of(G)
    powers = G.cyclic_subgroup(G.names.index("(1 2 3)"))
    subT = CharTable.of(preset("C3"))
    three = next(t for t in range(T.k) if T.degrees[t] == 3)
    res = restrict(VirtualChar.irreducible(T, three), powers, subT)
    for i in range(subT.group.n):
        assert res.value(subT.class_of[i]) == \
            T.value(three, T.class_of[powers[i]])


def test_eigen_multiplicities_reproduce_values():
    # sum_u eigen[t][j][u] zeta_m^(ui) == chi_t(g^i) for g = reps[j], m = |g|
    tables = [CharTable.of(preset(name)) for name in PRESET_NAMES]
    tables.append(cyclic_table(9))
    for T in tables:
        G = T.group
        for t in range(T.k):
            for j, g in enumerate(T.reps):
                m = G.element_order(g)
                mu = T.eigen[t][j]
                assert len(mu) == m
                for i in range(m):
                    got = sum((c * zeta(m, u * i) for u, c in enumerate(mu)),
                              CycNum.from_rational(0))
                    assert got == T.value(t, T.class_of[G.power(g, i)]), \
                        (G.label, t, j, i)


def test_to_dict_is_json_safe():
    import json
    for name in ("S3", "F21"):
        T = CharTable.of(preset(name))
        json.dumps(T.to_dict())
        json.dumps(T.certify())


def test_certify_rejects_altered_value():
    T = CharTable.of(preset("S3"))
    values = [row[:] for row in T.values]
    values[2][1] = values[2][1] + 1
    bad = CharTable(T.group, T.classes, values, T.degrees, T.eigen).certify()
    assert not bad["pass"]
    assert [c["pass"] for c in bad["checks"]] == [True, False, False]
    assert T.certify()["pass"]


def test_from_values_rejects_the_altered_table():
    T = CharTable.of(preset("S3"))
    values = [row[:] for row in T.values]
    values[2][1] = values[2][1] + 1
    bad = CharTable(T.group, T.classes, values, T.degrees, T.eigen)
    with pytest.raises(ValueError, match="not in the character span"):
        VirtualChar.from_values(bad, T.values[2])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_from_values_recovers_rational_combinations(name):
    # Class functions summed with CycNum arithmetic from random rational
    # coefficients at exp(G), the table's conductor: the decomposition
    # returns the coefficients and keeps the values.  A value moved off
    # the character span by zeta_exp(G) has an irrational projection.
    # Embedded at r exp(G) for r > 1 those values are refused: the table
    # is not packed again at a conductor that its own does not contain.
    T = CharTable.of(preset(name))
    rng = random.Random(name)
    zero = CycNum.from_rational(0)
    for r in (1, 2, 3, 5, 7):
        given = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for t in rng.sample(range(T.k), rng.randint(1, T.k))}
        class_values = [sum((c * T.values[t][j] for t, c in given.items()),
                            zero) for j in range(T.k)]
        vc = VirtualChar.from_values(T, class_values)
        assert coeffs(vc) == {t: c for t, c in given.items() if c}, r
        assert values(vc) == class_values
        nudged = list(class_values)
        nudged[rng.randrange(T.k)] += zeta(T.exponent)
        with pytest.raises(ValueError, match="not rational"):
            VirtualChar.from_values(T, nudged)
        if r > 1:
            with pytest.raises(ValueError, match=(
                    f"^cannot embed conductor {r * T.exponent} into "
                    f"{T.exponent}$")):
                VirtualChar.from_values(
                    T, [x.embed(r * T.exponent) for x in nudged])


def test_from_values_rejects_an_irrational_projection():
    T = CharTable.of(preset("S3"))
    values = [zeta(3)] + [CycNum.from_rational(0)] * (T.k - 1)
    with pytest.raises(ValueError, match="not rational"):
        VirtualChar.from_values(T, values)


def _resummed(vc):
    """sum_t c_t chi_t(j) for every class, with plain CycNum arithmetic."""
    T = vc.table
    return [sum((c * T.values[t][j] for t, c in coeffs(vc).items()),
                CycNum.from_rational(0)) for j in range(T.k)]


def test_stored_values_match_resummed_values():
    for name in PRESET_NAMES:
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        a, b = irr[-1], irr[len(irr) // 2]
        made = irr + [a + b, a - b, -a, scaled(a, Fraction(-3, 2)),
                      VirtualChar(T, {0: 2, T.k - 1: Fraction(1, 3)}),
                      (a + b).adams(2), VirtualChar.from_values(T, values(a))]
        for vc in made:
            assert values(vc) == _resummed(vc), (name, vc)


def _loop_inner(x, y):
    """The inner product as a CycNum loop over the classes."""
    T = x.table
    acc = CycNum.from_rational(0)
    for j in range(T.k):
        acc = acc + T.sizes[j] * x.value(j) * y.value(j).galois_apply(-1)
    return div(acc, T.group.n).as_rational()


def _inner_cases():
    """(label, characters on one table): irreducibles and induced
    characters of F21 and A4; on the power-ordered table of C9, the
    irreducibles, Xi, Xi*, d, Adams squares and rational combinations."""
    for name in ("F21", "A4"):
        G = preset(name)
        T = CharTable.of(G)
        chars = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        for s in (1, G.n - 1):
            powers = G.cyclic_subgroup(s)
            subT = CharTable.of(preset(f"C{len(powers)}"))
            chars += [induce(VirtualChar.irreducible(subT, i), powers, T)
                      for i in range(subT.k)]
        yield name, chars
    T, xi, xis, d = _order_chars(9)
    irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
    yield "C9", irr + [xi, xis, d, xi.adams(2), xis.adams(2), irr[4].adams(2),
                       (irr[2] - irr[7]).adams(2), xis - xi - d,
                       scaled(xi, Fraction(-3, 2)) + d,
                       irr[1] + scaled(irr[5], 7)]


def test_inner_matches_the_cycnum_loop():
    for label, chars in _inner_cases():
        for x in chars:
            for y in chars:
                assert x.inner(y) == _loop_inner(x, y), (label, x, y)


def test_inner_reads_coefficients_without_class_sums(monkeypatch):
    cases = list(_inner_cases())
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("dot", "combine"):
        monkeypatch.setattr(_PackedMatrix, name,
                            counting(name, getattr(_PackedMatrix, name)))
    monkeypatch.setattr(VirtualChar, "_row",
                        counting("_row", VirtualChar._row))
    monkeypatch.setattr(CycNum, "__init__",
                        counting("CycNum", CycNum.__init__))
    monkeypatch.setattr(CycNum, "_make", classmethod(
        counting("CycNum", CycNum._make.__func__)))
    got = [[x.inner(y) for x in chars for y in chars] for _, chars in cases]
    assert not calls, calls
    monkeypatch.undo()
    assert got == [[_loop_inner(x, y) for x in chars for y in chars]
                   for _, chars in cases]


def _heisenberg(p):
    """He_p, order p^3, as the maps (x, y) -> (x + 1, y) and
    (x, y) -> (x, y + x) of (Z/p)^2 generate it."""
    points = [(x, y) for x in range(p) for y in range(p)]
    where = {pt: i for i, pt in enumerate(points)}
    return FiniteGroup.from_generators([
        tuple(where[(x + 1) % p, y] for x, y in points),
        tuple(where[x, (y + x) % p] for x, y in points)])


def _dixon_groups():
    """(label, group) for every preset, cyclic groups of medium order, and
    the odd-order groups He3 and F57, where the lift meets classes that one
    DFT serves (in F57 g is conjugate to g^7)."""
    return ([(name, preset(name)) for name in PRESET_NAMES + ("C27", "C32")]
            + [("He3", _heisenberg(3)), ("F57", _f57())])


def _cycles(orders):
    """Generators of C_o1 x C_o2 x ..., one cycle per factor on disjoint
    points."""
    n, gens, start = sum(orders), [], 0
    for o in orders:
        perm = list(range(n))
        perm[start:start + o] = [start + (i + 1) % o for i in range(o)]
        gens.append(tuple(perm))
        start += o
    return gens


@pytest.mark.parametrize("orders", [(3, 3, 3), (3, 9), (7, 7), (3, 3, 3, 3)],
                         ids=["C3xC3xC3", "C3xC9", "C7xC7", "C3xC3xC3xC3"])
def test_dixon_certifies_abelian_groups_with_a_class_per_element(orders):
    # k = |G|: k eigenvalues mod ell ~ 2|G| nearly always collide, so ell
    # must grow with k^2 for a combination to separate them
    G = FiniteGroup.from_generators(_cycles(orders))
    T = CharTable.of(G)
    assert G.n == T.k == prod(orders)
    assert T.degrees == [1] * T.k
    assert T.certification["pass"]


def test_heisenberg_and_frobenius_degrees():
    # He_p: p^2 linear characters and p - 1 of degree p; F_pq: q linear
    # characters and (p - 1)/q of degree q.  Known without tamekit.
    cases = [(_heisenberg(3), 27, [1] * 9 + [3] * 2),
             (_heisenberg(5), 125, [1] * 25 + [5] * 4),
             (_f57(), 57, [1] * 3 + [3] * 6)]
    for G, order, degrees in cases:
        T = CharTable.of(G)
        assert G.n == order and T.k == len(degrees)
        assert T.degrees == degrees
        assert T.certification["pass"]


def _class_matrices(G, classes):
    """mats[j][kk][i], the coefficient of class sum kk in (class sum j)(class
    sum i), by counting every product x y, x in C_j and y in C_i: the
    reference for the class products that Dixon's method reads instead."""
    k = len(classes)
    rep_slot = {cl[0]: j for j, cl in enumerate(classes)}
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for j in range(k):
        for x in classes[j]:
            for i in range(k):
                for y in classes[i]:
                    slot = rep_slot.get(G.table[x][y])
                    if slot is not None:
                        a[j][slot][i] += 1
    return a


def _dixon_setup(G):
    """(classes, class_of, class products, ell) as `CharTable._dixon` makes
    them."""
    classes = G.conjugacy_classes()
    k = len(classes)
    reps, _, class_of, _, _ = _layout(G, classes)
    ell = smallest_prime_in_class(1, G.exponent(), max(2 * G.n + 1, k * k))
    return classes, class_of, _class_products(G, reps, class_of), ell


def test_class_products_give_every_structure_constant():
    # M_j[kk][i] = #{x in C_j : prods[kk][x] = i}, entry for entry, on
    # groups with one class per element and with large classes
    groups = [(name, preset(name)) for name in PRESET_NAMES + ("C27", "C45")]
    groups += [("He3", _heisenberg(3)), ("He5", _heisenberg(5)),
               ("F57", _f57()),
               ("C3xC3xC3", FiniteGroup.from_generators(_cycles((3, 3, 3))))]
    for name, G in groups:
        classes, _, prods, _ = _dixon_setup(G)
        k = len(classes)
        counted = [[[sum(prods[kk][x] == i for x in cl) for i in range(k)]
                    for kk in range(k)] for cl in classes]
        assert counted == _class_matrices(G, classes), name


def test_dixon_vectors_are_eigenvectors_of_every_class_matrix():
    for name, G in _dixon_groups() + [("C45", preset("C45"))]:
        classes, class_of, prods, ell = _dixon_setup(G)
        mats = _class_matrices(G, classes)
        vecs = CharTable._simultaneous_eigenvectors(prods, class_of, ell)
        assert len(vecs) == len(classes), name
        for M in mats:
            for v in vecs:
                mv = [sum(a * b for a, b in zip(row, v)) % ell for row in M]
                idx = next(i for i, x in enumerate(v) if x)
                lam = mv[idx] * pow(v[idx], -1, ell) % ell
                assert mv == [lam * x % ell for x in v], name


def test_eigen_rows_are_the_direct_dft_of_each_class():
    # mu_u = (1/m) sum_v chi(g^v) zeta_m^(-u v) for g = reps[j], m = |g|,
    # exactly, on every class: the lift runs one DFT per cyclic subgroup
    # and permutes its result for the other classes of generators.
    for name, G in _dixon_groups():
        if name in ("C27", "C32"):
            continue  # sum_g |g|^2 products per character; C9 covers it
        T = CharTable.of(G)
        for j, g in enumerate(T.reps):
            m = G.element_order(g)
            powers = [T.class_of[G.power(g, v)] for v in range(m)]
            for t in range(T.k):
                for u in range(m):
                    acc = sum((T.values[t][c] * zeta(m, -u * v % m)
                               for v, c in enumerate(powers)),
                              CycNum.from_rational(0))
                    assert acc.as_rational() / m == T.eigen[t][j][u], \
                        (name, t, j, u)


def test_lift_runs_one_dft_per_cyclic_subgroup(monkeypatch):
    # C32 has one cyclic subgroup per divisor of 32: six DFTs per character
    calls = []

    def counted(*args):
        calls.append(args)
        return lift(*args)

    lift = characters._multiplicities
    monkeypatch.setattr(characters, "_multiplicities", counted)
    T = CharTable._dixon(preset("C32"))
    assert T.k == 32 and len(calls) == 6 * 32


def test_dependent_krylov_vectors_reject_every_combination(monkeypatch):
    # Class products prods[kk][x] = kk make every class matrix the
    # identity, so each combination is a scalar matrix: K_1 is a multiple
    # of e_0 and no combination is accepted.
    monkeypatch.setattr(characters, "_class_products",
                        lambda G, reps, class_of: [[kk] * G.n
                                                   for kk in range(len(reps))])
    with pytest.raises(ArithmeticError, match=(
            r"no separating class-sum combination found: "
            r"\|G\| = 6, k = 3, ell = 13, 12 tries$")):
        CharTable._dixon(preset("S3"))


def test_krylov_search_stops_at_the_first_dependent_vector():
    # At t = 1, C = sum_j M_j is |G| times the projection on the trivial
    # character, so K_2 = |G| K_1: the search rejects C after two mat-vecs
    # (one pass over C's rows each), not k.
    class Rows(list):
        passes = 0

        def __iter__(self):
            Rows.passes += 1
            return super().__iter__()

    for name in PRESET_NAMES + ("C27", "C32"):
        G = preset(name)
        classes, _, _, ell = _dixon_setup(G)
        comb = Rows(_combination(_class_matrices(G, classes), 1, ell))
        Rows.passes = 0
        assert _krylov_poly(comb, ell) is None, name
        assert Rows.passes == 2, (name, Rows.passes)


def _nullspace(mat, ell):
    """A basis of the kernel of mat mod ell by Gauss-Jordan elimination, the
    reference for the eigenvalues found as roots of the characteristic
    polynomial."""
    k = len(mat)
    m = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, k) if m[i][c] % ell), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, ell)
        m[r] = [(x * inv) % ell for x in m[r]]
        for i in range(k):
            f = m[i][c] % ell
            if f and i != r:
                m[i] = [(x - f * y) % ell for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(k) if c not in pivots):
        v = [0] * k
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % ell
        basis.append(tuple(v))
    return basis


def _combination(mats, t, ell):
    """sum_j t^j M_j mod ell, the matrix the eigenvalue search tries at t."""
    k = len(mats)
    return [[sum(pow(t, j, ell) * M[r][c] for j, M in enumerate(mats)) % ell
             for c in range(k)] for r in range(k)]


def _evaluate(coeffs, x, ell):
    return sum(a * pow(x, d, ell) for d, a in enumerate(coeffs)) % ell


def _krylov(mat, ell):
    """K_0, ..., K_k with K_i = mat^i e_0 mod ell, e_0 the first unit
    vector."""
    k = len(mat)
    seq = [[1] + [0] * (k - 1)]
    for _ in range(k):
        seq.append([sum(a * b for a, b in zip(row, seq[-1])) % ell
                    for row in mat])
    return seq


def test_charpoly_roots_are_the_eigenvalues_of_the_separating_combination():
    for name in PRESET_NAMES + ("C27",):
        G = preset(name)
        classes, class_of, prods, ell = _dixon_setup(G)
        k = len(classes)
        mats = _class_matrices(G, classes)
        for t in range(1, ell):
            comb = _combination(mats, t, ell)
            found = _krylov_poly(comb, ell)
            if found is None:
                continue
            poly, vectors = found
            assert vectors == _krylov(comb, ell)[:k], name
            assert len(poly) == k + 1 and poly[k] == 1, name
            roots = [lam for lam in range(ell) if not _evaluate(poly, lam, ell)]
            if len(roots) == k:
                break
        else:
            pytest.fail(f"{name}: no combination with {k} distinct roots")
        eigen = [lam for lam in range(ell)
                 if _nullspace([[(x - lam) % ell if r == c else x
                                 for c, x in enumerate(row)]
                                for r, row in enumerate(comb)], ell)]
        assert roots == eigen, name
        vecs = CharTable._simultaneous_eigenvectors(prods, class_of, ell)
        assert len(vecs) == k, name
        for lam, v in zip(roots, vecs):
            cv = [sum(a * b for a, b in zip(row, v)) % ell for row in comb]
            assert cv == [lam * x % ell for x in v], name


def _eliminate(mat, ell):
    """(rank, determinant) mod ell by Gaussian elimination."""
    m = [row[:] for row in mat]
    k = len(m)
    rank, det = 0, 1
    for c in range(k):
        pr = next((i for i in range(rank, k) if m[i][c] % ell), None)
        if pr is None:
            det = 0
            continue
        if pr != rank:
            m[rank], m[pr] = m[pr], m[rank]
            det = -det
        det = det * m[rank][c] % ell
        inv = pow(m[rank][c], -1, ell)
        for i in range(rank + 1, k):
            f = m[i][c] * inv % ell
            m[i] = [(x - f * y) % ell for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank, det % ell


@st.composite
def square_matrices(draw):
    """A k x k matrix mod a small prime: full, sparse, triangular or block
    diagonal, so that the Krylov sequence of e_0 is dependent as well as
    independent."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["full", "sparse", "upper", "lower", "blocks"]))
    entry = st.integers(0, ell - 1)
    if shape == "sparse":
        entry = st.sampled_from([0, 0, 0, 1, ell - 1])
    mat = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if shape == "upper":
        mat = [[x if c >= r else 0 for c, x in enumerate(row)]
               for r, row in enumerate(mat)]
    elif shape == "lower":
        mat = [[x if c <= r else 0 for c, x in enumerate(row)]
               for r, row in enumerate(mat)]
    elif shape == "blocks":
        cuts = sorted(draw(st.sets(st.integers(1, k - 1), max_size=3))
                      if k > 1 else set())
        block = [sum(r >= cut for cut in cuts) for r in range(k)]
        mat = [[x if block[r] == block[c] else 0 for c, x in enumerate(row)]
               for r, row in enumerate(mat)]
    return mat, ell


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(square_matrices())
def test_charpoly_is_the_determinant_at_every_point(case):
    # from the Krylov sequence of e_0, which spans the space exactly when
    # the k x k matrix of K_0, ..., K_(k-1) has rank k
    mat, ell = case
    k = len(mat)
    krylov = _krylov(mat, ell)
    found = _krylov_poly(mat, ell)
    if found is None:
        assert _eliminate(krylov[:k], ell)[0] < k
        return
    poly, vectors = found
    assert vectors == krylov[:k]
    assert len(poly) == k + 1 and poly[k] == 1
    for lam in range(ell):
        shifted = [[((lam if r == c else 0) - x) % ell
                    for c, x in enumerate(row)] for r, row in enumerate(mat)]
        assert _evaluate(poly, lam, ell) == _eliminate(shifted, ell)[1], lam


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(square_matrices())
def test_nullspace_is_a_kernel_basis(case):
    mat, ell = case
    k = len(mat)
    basis = _nullspace(mat, ell)
    assert len(basis) == k - _eliminate(mat, ell)[0]
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) % ell == 0 for row in mat)
    # distinct last nonzero positions make the vectors independent
    last = [max(i for i, x in enumerate(v) if x) for v in basis]
    assert len(set(last)) == len(last)
    assert all(v[i] == 1 for v, i in zip(basis, last))


def test_dixon_matches_the_cyclic_tables():
    # zeta_n^(ij) and its multiplicities, known without Dixon's method
    def key(row):
        return tuple(x.num for x in row)

    for name in ("C27", "C32", "C45"):
        G = preset(name)
        dixon = CharTable._dixon(G)
        known = cyclic_table(G.n)
        assert dixon.classes == known.classes, name
        where = {key(row): t for t, row in enumerate(known.values)}
        assert sorted(map(key, dixon.values)) == sorted(where), name
        for row, mults in zip(dixon.values, dixon.eigen):
            assert mults == known.eigen[where[key(row)]], name


def test_c63_table_within_budget():
    # a group object of its own, so that no cached table is read
    G = FiniteGroup.from_generators([tuple(range(1, 63)) + (0,)])
    started = time.monotonic()
    T = CharTable.of(G)
    elapsed = time.monotonic() - started
    assert T.k == 63 and T.degrees == [1] * 63
    assert T.certification["pass"]
    assert elapsed < 2, f"CharTable.of(C63) took {elapsed:.2f}s"


def _recording_zero_tests(monkeypatch):
    """The `_ZeroTest`s that `certify` makes from now on, kept in a list."""
    made = []

    class Recorded(cyclotomic._ZeroTest):
        def __init__(self, n, bound):
            super().__init__(n, bound)
            self.bound = bound
            made.append(self)

    monkeypatch.setattr(characters, "_ZeroTest", Recorded)
    return made


def _certify_slot_bytes(n, monkeypatch):
    """The slot widths of `certify` on C_n's power order table and on
    Dixon's, which holds the same values."""
    tables = [cyclic_table(n), CharTable.of(preset(f"C{n}"))]
    made = _recording_zero_tests(monkeypatch)
    assert all(T.certify()["pass"] for T in tables)
    return [t.kb for t in made]


@pytest.mark.parametrize("n", [27, 32])
def test_certify_packs_cyclic_tables_at_one_byte(n, monkeypatch):
    # |G| (max|A|_1^2 + 1) is 135 at C27 (|zeta_27^e|_1 <= 2) and 64 at
    # C32, below 2^8 - 1.
    assert _certify_slot_bytes(n, monkeypatch) == [1, 1]


@pytest.mark.parametrize("n", [63])
def test_certify_packs_cyclic_tables_at_two_bytes(n, monkeypatch):
    # |G| (max|A|_1^2 + 1) is 63 (9^2 + 1) = 5,166 at C63, past 2^8 - 1.
    assert _certify_slot_bytes(n, monkeypatch) == [2, 2]


@pytest.mark.parametrize("name", ["C27", "C32", "C63", "F21", "He5"])
def test_certify_bound_covers_every_sum(name, monkeypatch):
    # Each sum D = sum |C_j| a_j b_j - delta (relation 1) or
    # sum a_t b_t - delta (relation 2) of integral values, multiplied out
    # without reduction; |D|_1 is at most the sum of the |.|_1 of its terms.
    G = _heisenberg(5) if name == "He5" else preset(name)
    T = CharTable.of(G)
    n, k, inv, sizes = G.n, T.k, T.inverse, T.sizes
    assert all(x.den == 1 for row in T.values for x in row)
    norms = [[sum(map(abs, x.num)) for x in row] for row in T.values]
    widest = 0
    for t in range(k):
        for u in range(k):
            widest = max(widest, n * (t == u) + sum(
                sizes[j] * norms[t][j] * norms[u][inv[j]] for j in range(k)))
    for i in range(k):
        for j in range(k):
            widest = max(widest, n // sizes[i] * (i == j) + sum(
                norms[t][i] * norms[t][inv[j]] for t in range(k)))
    made = _recording_zero_tests(monkeypatch)
    assert T.certify()["pass"]
    assert len(made) == 1 and made[0].n == T.exponent
    assert made[0].bound >= widest, (made[0].bound, widest)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_certify_rejects_every_shifted_or_conjugated_value(name):
    # Adding 1 to a value off the identity class, or conjugating a value
    # that is not real, breaks an orthogonality relation; the degrees are
    # kept, so the first check still passes.
    T = CharTable.of(preset(name))
    one = T.class_of[0]
    bad_tables = []
    for t in range(T.k):
        for j in range(T.k):
            x = T.values[t][j]
            conjugate = x.galois_apply(-1)
            changes = [x + 1] if j != one else []
            if conjugate != x:
                changes.append(conjugate)
            for y in changes:
                values = [row[:] for row in T.values]
                values[t][j] = y
                bad_tables.append(values)
    assert bad_tables
    for values in bad_tables:
        bad = CharTable(T.group, T.classes, values, T.degrees, T.eigen)
        report = bad.certify()
        assert not report["pass"]
        assert report["checks"][0]["pass"]
    assert T.certify()["pass"]


def _reference_checks(T):
    """Both orthogonality relations with CycNum arithmetic and Fraction
    weights, as sums of class functions."""
    n, k, V, inv = T.group.n, T.k, T.values, T.inverse
    zero = CycNum.from_rational(0)
    first = all(
        sum((Fraction(T.sizes[j], n) * V[t][j] * V[u][inv[j]]
             for j in range(k)), zero) == (1 if t == u else 0)
        for t in range(k) for u in range(k))
    second = all(
        sum((V[t][i] * V[t][inv[j]] for t in range(k)), zero)
        == (n // T.sizes[i] if i == j else 0)
        for i in range(k) for j in range(k))
    return [first, second]


def test_certify_clears_denominators_like_the_reference():
    # Rotating two rows of S3's real table by the rational rotation
    # (3/5, 4/5) keeps both relations and puts 5 in the denominators; one
    # value off by 1/5 more breaks them.
    T = CharTable.of(preset("S3"))
    a, b = T.values[0], T.values[1]
    rotated = [[x * Fraction(3, 5) + y * Fraction(4, 5) for x, y in zip(a, b)],
               [minus(x * Fraction(4, 5), y * Fraction(3, 5))
                for x, y in zip(a, b)],
               T.values[2]]
    assert any(x.den == 5 for x in rotated[0])
    nudged = [row[:] for row in rotated]
    nudged[0][1] = nudged[0][1] + Fraction(1, 5)
    verdicts = []
    for values in (rotated, nudged):
        table = CharTable(T.group, T.classes, values, T.degrees, T.eigen)
        checks = [c["pass"] for c in table.certify()["checks"]]
        assert checks[1:] == _reference_checks(table)
        verdicts.append(checks)
    assert verdicts == [[True, True, True], [True, False, False]]


def test_certify_builds_no_sum(monkeypatch):
    # no character sum, and CycNums only for the distinct values, none
    # per sum
    def refused(*args):
        raise AssertionError("certify took a character sum")

    monkeypatch.setattr(_PackedMatrix, "dot", refused)
    monkeypatch.setattr(_PackedMatrix, "combine", refused)
    built = []
    make = CycNum._make.__func__
    monkeypatch.setattr(CycNum, "_make", classmethod(
        lambda cls, *args: built.append(1) or make(cls, *args)))
    for name in ("C27", "F21"):
        T = CharTable.of(preset(name))
        distinct = {id(x) for row in T.values for x in row}
        built.clear()
        assert T.certify()["pass"]
        assert len(built) <= len(distinct), (name, len(built))


def test_inseparable_class_matrices_fail_after_bounded_tries(monkeypatch):
    calls = []

    def counted(comb, ell):
        calls.append(ell)
        return _krylov_poly(comb, ell)

    monkeypatch.setattr(characters, "_krylov_poly", counted)
    # prods[kk][x] = kk: both class matrices of a group of order 2 are the
    # identity, so every combination is scalar
    identity = [[0, 0], [1, 1]]
    for ell, tries in ((7, 6), (211, 199)):
        calls.clear()
        with pytest.raises(ArithmeticError, match=(
                r"no separating class-sum combination found: "
                rf"\|G\| = 2, k = 2, ell = {ell}, {tries} tries$")):
            CharTable._simultaneous_eigenvectors(identity, [0, 1], ell)
        assert calls == [ell] * tries
