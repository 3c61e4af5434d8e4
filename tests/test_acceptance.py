"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line and holding an explicit wall-clock budget.  Run with -s to see the
lines as they complete.  Every comparison below is exact; there are no
numerical tolerances anywhere in the package.
"""

import hashlib
import json
import random
import time
from math import gcd
from pathlib import Path

from tamekit.characters import CharTable, VirtualChar, induce
from tamekit.cli import DEFAULT_CONFIG, SuiteConfig, run_suite
from tamekit.gaussjacobi import verify_gauss_identities, verify_jstar
from tamekit.groups import PRESET_NAMES, preset
from tamekit.ledger import (build_f, crux_check, decompose, norm_restrict,
                            recompose)
from tamekit.localmodel import (TameElement, verify_factorization,
                                verify_kummer_generator)
from tamekit.stickelberger import (pairing, star_pairing,
                                   verify_adams_identities,
                                   verify_induction_identities)

from reference import restrict, scaled, values

ALL_GROUPS = ("C3", "C5", "C7", "C9", "S3", "D5", "A4", "Q8", "F21")
# sha256 of every report the default suite writes, committed with the
# benchmark (read here, never written).
EXPECTED = Path(__file__).resolve().parents[1] / "tamebench" / "expected.json"


def _gate(name, budget, started, failures):
    elapsed = time.monotonic() - started
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} {name} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {failures[:5]}"
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_pairing_identity_suite():
    started = time.monotonic()
    failures = []
    for name in ALL_GROUPS:
        G = preset(name)
        for s in range(G.n):
            if not verify_induction_identities(G, s)["pass"]:
                failures.append(("induction", name, s))
            if G.element_order(s) % 2 == 1:
                if not verify_adams_identities(G, s)["pass"]:
                    failures.append(("adams", name, s))
    _gate("criterion 1: pairing identity suite", 10, started, failures)


def test_criterion_2_table_certification_and_functoriality():
    started = time.monotonic()
    failures = []
    rng = random.Random(2)
    for name in ALL_GROUPS:
        G = preset(name)
        T = CharTable.of(G)
        if not T.certify()["pass"]:
            failures.append(("certify", name))
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
                    if ind.inner(chi) != psi.inner(restrict(chi, powers,
                                                            subT)):
                        failures.append(("reciprocity", name, s, i, t))
        for _ in range(6):
            vc = scaled(VirtualChar.irreducible(T, rng.randrange(T.k)),
                        rng.randrange(-2, 3)) + VirtualChar.irreducible(
                T, rng.randrange(T.k))
            a, b = rng.choice([1, 2, 3]), rng.choice([2, 3, 5])
            if values(vc.adams(a).adams(b)) != values(vc.adams(a * b)):
                failures.append(("adams-composition", name, a, b))
    _gate("criterion 2: table certification and functoriality", 10,
          started, failures)


def test_criterion_3_free_generator_window():
    started = time.monotonic()
    failures = []
    for e in (3, 5, 7, 9):
        for n in (0, (1 - e) // 2, 1, e - 1):
            if not verify_kummer_generator(e, n)["pass"]:
                failures.append((e, n))
    _gate("criterion 3: free generator window", 30, started, failures)


def test_criterion_4_resolvend_factorization():
    started = time.monotonic()
    failures = []
    for name in ("C3", "C5", "S3", "F21"):
        G = preset(name)
        for s in range(G.n):
            if G.element_order(s) % 2 == 0:
                continue
            if not verify_factorization(G, s)["pass"]:
                failures.append((name, s))
    _gate("criterion 4: resolvend factorization", 20, started, failures)


def test_criterion_5_gauss_jacobi_sweep():
    started = time.monotonic()
    failures = []
    expected_pairs = {3: 0, 5: 6, 7: 20, 11: 72, 13: 110, 31: 812}
    for p, pairs in expected_pairs.items():
        rep = verify_gauss_identities(p)
        if not rep["pass"] or rep["jacobi_pairs"] != pairs:
            failures.append(("identities", p))
        if not verify_jstar(p)["pass"]:
            failures.append(("jstar-norms", p))
    _gate("criterion 5: gauss/jacobi sweep", 30, started, failures)


def test_criterion_6_valuation_crux():
    started = time.monotonic()
    failures = []
    for p, e in ((7, 3), (11, 5), (31, 3), (31, 5)):
        rep = crux_check(p, e)
        if not rep["pass"] or not rep["identifications"]:
            failures.append((p, e))
    _gate("criterion 6: valuation crux", 60, started, failures)


def _random_places(rng, G):
    m_options = sorted({G.element_order(g) for g in range(G.n)
                        if G.element_order(g) % 2 == 1})
    places = []
    for i in range(rng.randrange(1, 5)):
        m = rng.choice(m_options)
        s = rng.choice([g for g in range(G.n) if G.element_order(g) == m])
        q = rng.choice([q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25)
                        if gcd(m, q) == 1])
        places.append((f"v{i}", q, s))
    return places


def test_criterion_7_family_ledger_properties():
    started = time.monotonic()
    failures = []
    rng = random.Random(7)
    names = [n for n in ALL_GROUPS]
    for case in range(100):
        G = preset(rng.choice(names))
        T = CharTable.of(G)
        places = _random_places(rng, G)
        f = build_f(G, places)
        if recompose(decompose(f)) != f:
            failures.append(("round-trip", case))
            continue
        label, _, s = places[0]
        hom = f[label][2]
        for t in range(T.k):
            chi = VirtualChar.irreducible(T, t)
            want = star_pairing(chi, s) - pairing(chi, s)
            if hom[t] != TameElement.monomial(want):
                failures.append(("exponent", case, t))
        if norm_restrict(T, hom, [1]) != hom:
            failures.append(("identity", case))
        exp = T.exponent
        units = [k for k in range(1, exp) if gcd(k, exp) == 1]
        k1, k2 = rng.sample(units, 2) if len(units) > 1 else (1, 1)
        nested = norm_restrict(T, norm_restrict(T, hom, [1, k1]), [1, k2])
        flat = norm_restrict(T, hom, [a * b % exp
                                      for a in (1, k1) for b in (1, k2)])
        if nested != flat:
            failures.append(("associativity", case))
    _gate("criterion 7: family ledger properties", 10, started, failures)


def test_criterion_8_suite_determinism(tmp_path, capsys, cold_order_caches):
    # the first run builds the per-order caches and the second reads them
    config = SuiteConfig({})
    runs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert run_suite(config, str(out)) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    capsys.readouterr()
    # The committed digests pin the bytes across commits, not just runs.
    pinned = json.loads(EXPECTED.read_text())["suite"]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in runs[0].items()}
    ok = runs[0] == runs[1] and digests == pinned
    print(f"{'PASS' if ok else 'FAIL'} criterion 8: suite determinism")
    assert runs[0] == runs[1], "consecutive suite runs wrote different bytes"
    assert digests == pinned, sorted(
        name for name in set(digests) | set(pinned)
        if digests.get(name) != pinned.get(name))
