"""Character tables, virtual characters, Adams operations, induction."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tamekit.characters as characters
import tamekit.cyclotomic as cyclotomic
from tamekit.characters import (CharTable, VirtualChar, _charpoly,
                                 _class_matrices, _dixon_prime, cyclic_table,
                                 induce)
from tamekit.cyclotomic import CycNum, zeta
from tamekit.groups import PRESET_NAMES, FiniteGroup, Subgroup, preset
from tamekit.stickelberger import _cyclic_context, _order_chars

from restriction import restrict


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
        G = preset(f"C{n}")
        gens = [g for g in range(G.n) if G.element_order(g) == n]
        assert gens, n
        for g in gens:
            assert CharTable.cyclic(G, g).certify()["pass"], (n, g)


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
    T = CharTable.cyclic(G, 1)
    for j in range(5):
        for t in range(5):
            assert T.value(j, T.class_of[G.power(1, t)]) == zeta(5, (j * t) % 5)


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
            coeffs = {rng.randrange(T.k): Fraction(rng.randrange(-2, 3))
                      for _ in range(2)}
            vc = sum((VirtualChar.irreducible(T, t).scale(c)
                      for t, c in coeffs.items()),
                     VirtualChar.irreducible(T, 0).scale(0))
            a, b = rng.choice([1, 2, 3]), rng.choice([1, 2, 5])
            assert vc.adams(a).adams(b).values() == vc.adams(a * b).values()


def test_adams_fixes_trivial():
    T = CharTable.of(preset("A4"))
    tr = VirtualChar.irreducible(T, _trivial_index(T))
    assert tr.adams(3).values() == tr.values()


def test_virtual_arithmetic():
    T = CharTable.of(preset("S3"))
    a = VirtualChar.irreducible(T, 0)
    b = VirtualChar.irreducible(T, 2)
    s = a + b
    one = T.class_of[0]
    assert s.value(one) == a.value(one) + b.value(one)
    assert (s - b).values() == a.values()
    assert (a - a).value(one) == 0
    assert a.scale(3).value(one) == a.value(one) * 3


def test_induction_of_trivial_is_permutation_character():
    G = preset("S3")
    T = CharTable.of(G)
    s = G.names.index("(1 2 3)")
    sub = Subgroup.cyclic(G, s)
    subT = CharTable.of(sub.group)
    ind = induce(VirtualChar.irreducible(subT, _trivial_index(subT)), sub, T)
    # permutation character on two points: trivial + sign
    assert ind.value(T.class_of[0]).as_rational() == 2
    assert ind.inner(VirtualChar.irreducible(T, _trivial_index(T))) == 1
    two = next(t for t in range(T.k) if T.degrees[t] == 2)
    assert ind.inner(VirtualChar.irreducible(T, two)) == 0


def test_induction_of_nontrivial_linear_gives_degree_two():
    G = preset("S3")
    T = CharTable.of(G)
    sub = Subgroup.cyclic(G, G.names.index("(1 2 3)"))
    subT = CharTable.of(sub.group)
    xi = next(t for t in range(subT.k) if t != _trivial_index(subT))
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


def _induce_by_conjugation(vc, sub, T):
    """Reference induction, one conjugation per x in G:
    Ind f(g) = (1/|H|) sum over x with x g x^-1 in H of f(x g x^-1)."""
    G = sub.parent
    hvals = vc.values()
    vals = []
    for g in T.reps:
        acc = CycNum.from_rational(0)
        for x in range(G.n):
            hi = sub.from_parent.get(G.conjugate(x, g))
            if hi is not None:
                acc = acc + hvals[vc.table.class_of[hi]]
        vals.append(acc / sub.group.n)
    return VirtualChar.from_values(T, vals)


def _f57():
    """F57 = C19 : C3 from x -> x + 1 and x -> 7x on Z/19."""
    return FiniteGroup.from_generators([
        tuple((x + 1) % 19 for x in range(19)),
        tuple(7 * x % 19 for x in range(19))])


def _induction_cases():
    """(subgroup, its table): every cyclic subgroup of every preset (among
    them the C2 <(1 2)> of S3, which is not normal), on the power-ordered
    table the pairings use; the Klein four-group in A4, which is not
    cyclic; the C19 and C3 of F57."""
    for name in PRESET_NAMES:
        G = preset(name)
        seen = set()
        for s in range(G.n):
            key = frozenset(G.cyclic_subgroup(s))
            if key not in seen:
                seen.add(key)
                sub = Subgroup.cyclic(G, s)
                yield sub, CharTable.cyclic(sub.group, sub.from_parent[s])
    A4 = preset("A4")
    klein = Subgroup(A4, [g for g in range(A4.n) if A4.element_order(g) <= 2])
    assert klein.group.n == 4
    yield klein, CharTable.of(klein.group)
    F57 = _f57()
    # the generators are the first elements after the identity
    assert (F57.element_order(1), F57.element_order(2)) == (19, 3)
    for s in (1, 2):
        sub = Subgroup.cyclic(F57, s)
        yield sub, CharTable.cyclic(sub.group, sub.from_parent[s])


def test_induce_matches_the_conjugation_loop():
    for sub, subT in _induction_cases():
        T = CharTable.of(sub.parent)
        irr = [VirtualChar.irreducible(subT, i) for i in range(subT.k)]
        mixed = VirtualChar(subT, {i: Fraction(i + 1, subT.k)
                                   for i in range(subT.k)})
        for psi in irr + [mixed, irr[-1].scale(-2) - irr[0]]:
            ind, ref = induce(psi, sub, T), _induce_by_conjugation(psi, sub, T)
            assert ind.coeffs == ref.coeffs, (sub.elements, psi)
            assert ind.values() == ref.values(), (sub.elements, psi)


def test_adams_matches_a_direct_decomposition():
    for name in PRESET_NAMES:
        T = CharTable.of(preset(name))
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        chars = irr + [irr[-1].scale(Fraction(-3, 2)) + irr[0],
                       VirtualChar(T, {t: Fraction(t + 1, 3)
                                       for t in range(T.k)})]
        for chi in chars:
            # every k after the first finds the table's cache holding
            # chi's decomposition for another k
            for k in (-1, 0, 2, 3, 5):
                direct = VirtualChar.from_values(
                    T, [chi.value(T.power_class(j, k)) for j in range(T.k)])
                for psi in (chi.adams(k), chi.adams(k)):
                    assert psi.coeffs == direct.coeffs, (name, chi, k)
                    assert psi.values() == direct.values(), (name, chi, k)
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
            chi.scale(bad)
        with pytest.raises(TypeError):
            VirtualChar(T, {0: bad})
    assert chi.scale(Fraction(1, 10)).coeffs == {0: Fraction(1, 10)}
    assert VirtualChar(T, {0: 2, 1: 0}).coeffs == {0: Fraction(2)}


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


def _inner_cases():
    """(label, characters on one table): irreducibles and induced
    characters of F21 and A4; on the power-ordered tables of C9 at
    generators 1 and 2, the irreducibles, Xi, Xi*, d, Adams squares and
    rational combinations."""
    for name in ("F21", "A4"):
        G = preset(name)
        T = CharTable.of(G)
        chars = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        for s in (1, G.n - 1):
            sub = Subgroup.cyclic(G, s)
            subT = CharTable.of(sub.group)
            chars += [induce(VirtualChar.irreducible(subT, i), sub, T)
                      for i in range(subT.k)]
        yield name, chars
    G = preset("C9")
    for s in (1, 2):
        assert G.element_order(s) == 9
        _, T = _cyclic_context(G, s)
        irr = [VirtualChar.irreducible(T, t) for t in range(T.k)]
        _, xi, xis, d = _order_chars(9)
        chars = irr + [xi, xis, d, xi.adams(2), xis.adams(2), irr[4].adams(2),
                       (irr[2] - irr[7]).adams(2), xis - xi - d,
                       xi.scale(Fraction(-3, 2)) + d, irr[1] + irr[5].scale(7)]
        yield f"C9 at {s}", chars


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

    monkeypatch.setattr(characters, "_dot", counting("_dot", characters._dot))
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


def test_dixon_vectors_are_eigenvectors_of_every_class_matrix():
    for name, G in _dixon_groups() + [("C45", preset("C45"))]:
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


def test_zero_krylov_vector_raises(monkeypatch):
    # Class matrices diag(1, 2, 3): the combination has three distinct
    # eigenvalues, but e_0 lies in one eigenspace, so the Krylov vectors
    # of the other two vanish.
    diag = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    monkeypatch.setattr(characters, "_class_matrices",
                        lambda G, classes, ell: [diag] * len(classes))
    with pytest.raises(ArithmeticError, match="zero Krylov vector"):
        CharTable._dixon(preset("S3"))


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


def test_charpoly_roots_are_the_eigenvalues_of_the_separating_combination():
    for name in PRESET_NAMES + ("C27",):
        G = preset(name)
        classes = G.conjugacy_classes()
        k = len(classes)
        ell = _dixon_prime(G.exponent(), G.n)
        mats = _class_matrices(G, classes, ell)
        for t in range(1, ell):
            comb = _combination(mats, t, ell)
            poly = _charpoly(comb, ell)
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
        vecs = CharTable._simultaneous_eigenvectors(mats, ell, k)
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
    diagonal, so that the Hessenberg form meets zero subdiagonal entries."""
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
    mat, ell = case
    k = len(mat)
    poly = _charpoly(mat, ell)
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
        known = CharTable.cyclic(G, 1)
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


@pytest.mark.parametrize("n", [27, 32, 63])
def test_certify_packs_cyclic_tables_at_two_bytes(n, monkeypatch):
    # |G| (max|A|_1^2 + 1) |Psi_n|_1 fits the zero test's 16-bit slots, for
    # the power order table and for Dixon's, which holds the same values.
    tables = [cyclic_table(n), CharTable.of(preset(f"C{n}"))]
    made = _recording_zero_tests(monkeypatch)
    assert all(T.certify()["pass"] for T in tables)
    assert [t.kb for t in made] == [2, 2]


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
               [x * Fraction(4, 5) - y * Fraction(3, 5) for x, y in zip(a, b)],
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
    # no `_dot`, and CycNums only for the distinct values, none per sum
    def refused(sums):
        raise AssertionError("certify called _dot")

    monkeypatch.setattr(characters, "_dot", refused)
    monkeypatch.setattr(cyclotomic, "_dot", refused)
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

    def counted(mat, ell):
        calls.append(ell)
        return _charpoly(mat, ell)

    monkeypatch.setattr(characters, "_charpoly", counted)
    identity = [[1, 0], [0, 1]]
    for ell, tries in ((7, 6), (211, 199)):
        calls.clear()
        with pytest.raises(ArithmeticError,
                           match="no separating class-sum combination"):
            CharTable._simultaneous_eigenvectors([identity, identity], ell, 2)
        assert calls == [ell] * tries
