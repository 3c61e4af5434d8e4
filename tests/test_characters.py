"""Character tables, virtual characters, Adams operations, induction."""

import random
from fractions import Fraction

import pytest

from tamekit.characters import (CharTable, VirtualChar, _class_matrices,
                                 _dixon_prime, induce, restrict)
from tamekit.cyclotomic import CycNum, zeta
from tamekit.groups import PRESET_NAMES, Subgroup, preset


def test_all_presets_certify():
    for name in PRESET_NAMES:
        table = CharTable.of(preset(name))
        cert = table.certify()
        assert cert["pass"], name
        assert table.certification == cert, name


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
    tr = T.trivial_index()
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
    T = CharTable.cyclic(G, 1)
    for j in range(5):
        for t in range(5):
            assert T.value(j, T.class_of[G.power(1, t)]) == zeta(5, (j * t) % 5)


def test_orthonormality_of_irreducibles():
    T = CharTable.of(preset("A4"))
    for i in range(T.k):
        for j in range(T.k):
            want = Fraction(1 if i == j else 0)
            assert VirtualChar.irreducible(T, i).inner(
                VirtualChar.irreducible(T, j)) == want


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
            coeffs = {rng.randrange(T.k): Fraction(rng.randrange(-2, 3))
                      for _ in range(2)}
            vc = sum((VirtualChar.irreducible(T, t).scale(c)
                      for t, c in coeffs.items()),
                     VirtualChar.irreducible(T, 0).scale(0))
            a, b = rng.choice([1, 2, 3]), rng.choice([1, 2, 5])
            assert vc.adams(a).adams(b).values() == vc.adams(a * b).values()


def test_adams_fixes_trivial():
    T = CharTable.of(preset("A4"))
    tr = VirtualChar.irreducible(T, T.trivial_index())
    assert tr.adams(3).values() == tr.values()


def test_virtual_arithmetic():
    T = CharTable.of(preset("S3"))
    a = VirtualChar.irreducible(T, 0)
    b = VirtualChar.irreducible(T, 2)
    s = a + b
    assert s.degree() == a.degree() + b.degree()
    assert (s - b).values() == a.values()
    assert not (a - a).is_genuine() or (a - a).degree() == 0
    assert a.scale(3).degree() == 3 * a.degree()


def test_induction_of_trivial_is_permutation_character():
    G = preset("S3")
    T = CharTable.of(G)
    s = G.names.index("(1 2 3)")
    sub = Subgroup.cyclic(G, s)
    subT = CharTable.of(sub.group)
    ind = induce(VirtualChar.irreducible(subT, subT.trivial_index()), sub, T)
    # permutation character on two points: trivial + sign
    assert ind.value(T.class_of[0]).as_rational() == 2
    assert ind.inner(VirtualChar.irreducible(T, T.trivial_index())) == 1
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert ind.inner(VirtualChar.irreducible(T, two)) == 0


def test_induction_of_nontrivial_linear_gives_degree_two():
    G = preset("S3")
    T = CharTable.of(G)
    sub = Subgroup.cyclic(G, G.names.index("(1 2 3)"))
    subT = CharTable.of(sub.group)
    xi = next(t for t in range(subT.k) if t != subT.trivial_index())
    ind = induce(VirtualChar.irreducible(subT, xi), sub, T)
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert ind.values() == VirtualChar.irreducible(T, two).values()


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
            sub = Subgroup.cyclic(G, s)
            subT = CharTable.of(sub.group)
            for i in range(subT.k):
                psi = VirtualChar.irreducible(subT, i)
                ind = induce(psi, sub, T)
                for t in range(T.k):
                    chi = VirtualChar.irreducible(T, t)
                    assert ind.inner(chi) == psi.inner(restrict(chi, sub, subT))


def test_restriction_values_match():
    G = preset("A4")
    T = CharTable.of(G)
    s = G.names.index("(1 2 3)")
    sub = Subgroup.cyclic(G, s)
    subT = CharTable.of(sub.group)
    three = next(t for t in range(T.k) if T.degrees[t] == 3)
    res = restrict(VirtualChar.irreducible(T, three), sub, subT)
    for i in range(sub.group.n):
        assert res.value(subT.class_of[i]) == \
            T.value(three, T.class_of[sub.to_parent[i]])


def test_eigen_multiplicities_reproduce_values():
    # sum_u eigen[t][j][u] zeta_m^(ui) == chi_t(g^i) for g = reps[j], m = |g|
    tables = [CharTable.of(preset(name)) for name in PRESET_NAMES]
    C9 = preset("C9")
    tables += [CharTable.cyclic(C9, g) for g in range(C9.n)
               if C9.element_order(g) == C9.n]
    assert len(tables) == len(PRESET_NAMES) + 6
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


def test_from_values_rejects_an_irrational_projection():
    T = CharTable.of(preset("S3"))
    values = [zeta(3)] + [CycNum.from_rational(0)] * (T.k - 1)
    with pytest.raises(ValueError, match="not rational"):
        VirtualChar.from_values(T, values)


def _resummed(vc):
    """sum_t c_t chi_t(j) for every class, with plain CycNum arithmetic."""
    T = vc.table
    return [sum((c * T.values[t][j] for t, c in vc.coeffs.items()),
                CycNum.from_rational(0)) for j in range(T.k)]


def test_stored_values_match_resummed_values():
    for name in PRESET_NAMES:
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        a, b = irr[-1], irr[len(irr) // 2]
        made = irr + [a + b, a - b, -a, a.scale(Fraction(-3, 2)),
                      VirtualChar(T, {0: 2, T.k - 1: Fraction(1, 3)}),
                      (a + b).adams(2), VirtualChar.from_values(T, a.values())]
        for vc in made:
            assert vc.values() == _resummed(vc), (name, vc)


def _loop_inner(x, y):
    """The inner product as a CycNum loop over the classes."""
    T = x.table
    acc = CycNum.from_rational(0)
    for j in range(T.k):
        acc = acc + T.sizes[j] * x.value(j) * y.value(j).galois_apply(-1)
    return (acc / T.group.n).as_rational()


def test_inner_matches_the_cycnum_loop():
    for name in ("F21", "A4"):
        G = preset(name)
        T = CharTable.of(G)
        chars = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        for s in (1, G.n - 1):
            sub = Subgroup.cyclic(G, s)
            subT = CharTable.of(sub.group)
            chars += [induce(VirtualChar.irreducible(subT, i), sub, T)
                      for i in range(subT.k)]
        for x in chars:
            for y in chars:
                assert x.inner(y) == _loop_inner(x, y), name


def test_dixon_vectors_are_eigenvectors_of_every_class_matrix():
    for name in PRESET_NAMES + ("C27",):
        G = preset(name)
        classes = G.conjugacy_classes()
        ell = _dixon_prime(G.exponent(), G.n)
        mats = _class_matrices(G, classes, ell)
        vecs = CharTable._simultaneous_eigenvectors(mats, ell, len(classes))
        assert len(vecs) == len(classes), name
        for M in mats:
            for v in vecs:
                mv = [sum(a * b for a, b in zip(row, v)) % ell for row in M]
                idx = next(i for i, x in enumerate(v) if x)
                lam = mv[idx] * pow(v[idx], -1, ell) % ell
                assert mv == [lam * x % ell for x in v], name
