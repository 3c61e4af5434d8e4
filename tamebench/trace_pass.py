"""Traced pass: one workload in this interpreter, with the public functions
of each tamekit layer wrapped from outside, then seeded kernel probes.

Run by ``run.py --trace 1`` in a fresh interpreter:

    python3 tamebench/trace_pass.py --workload suite --seed 1 --out DIR

It writes the workload's reports into DIR, writes the coarse spans to
``.tamebench/spans-<workload>-seed<seed>.json`` and prints one JSON object
with per-target counts and times, the traced wall time and the probes.

Every wrapper keeps aggregate counters: calls, inclusive time (outermost
call only, so recursion is not counted twice) and self time (inclusive
minus the time of wrapped callees).  Only the coarse targets also record a
span.  A function imported by name into other modules is re-bound in every
``tamekit`` module that holds the same object; a missed binding would
silently read zero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction

from harness import COMMANDS, SRC, WORK, WORKLOADS

# (module, attribute or Class.attribute, metric key, coarse, workloads
# that must call it).  Targets sharing a key are summed under it.
SUITE = ("suite",)
TARGETS = [
    ("cyclotomic", "CycNum.__mul__", "cyclotomic.mul", False, WORKLOADS),
    ("cyclotomic", "CycNum.__init__", "cyclotomic.canon", False, WORKLOADS),
    ("cyclotomic", "CycNum.__add__", "cyclotomic.add", False, WORKLOADS),
    ("characters", "CharTable.of", "characters.dixon", True, WORKLOADS),
    ("characters", "CharTable._dixon", "characters.build", True, WORKLOADS),
    ("characters", "CharTable.certify", "characters.certify", True,
     WORKLOADS),
    ("characters", "restrict", "characters.restrict", False, SUITE),
    ("characters", "VirtualChar.from_values", "characters.from_values",
     False, SUITE),
    ("characters", "induce", "characters.induce", False, SUITE),
    ("characters", "VirtualChar.inner", "characters.inner", False, SUITE),
    ("stickelberger", "pairing", "stickelberger.pairing", False, SUITE),
    ("stickelberger", "star_pairing", "stickelberger.pairing", False, SUITE),
    ("stickelberger", "verify_induction_identities",
     "stickelberger.identities", True, SUITE),
    ("stickelberger", "verify_adams_identities", "stickelberger.identities",
     True, SUITE),
    ("localmodel", "det_resolvend", "localmodel.det_resolvend", False, SUITE),
    ("localmodel", "verify_factorization", "localmodel.factorization", True,
     SUITE),
    ("localmodel", "verify_kummer_generator", "localmodel.kummer", True, SUITE),
    ("padic", "lambda_valuation", "padic.valuation", False, SUITE),
    ("padic", "embed_cyclotomic", "padic.embed", False, SUITE),
    ("padic", "PadicApprox.__mul__", "padic.mul", False, SUITE),
    ("gaussjacobi", "verify_gauss_identities", "gaussjacobi.identities", True,
     SUITE),
    ("gaussjacobi", "verify_jstar", "gaussjacobi.jstar", True, SUITE),
    ("gaussjacobi", "j_star", "gaussjacobi.j_star", False, SUITE),
    ("ledger", "crux_check", "ledger.crux", True, SUITE),
    ("groups", "preset", "groups", False, WORKLOADS),
    ("groups", "FiniteGroup.conjugacy_classes", "groups", False, WORKLOADS),
]


class Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers, accumulates counters and coarse spans, and puts
    the original functions back on ``remove``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}     # per target
        self.bindings: dict[str, int] = {}  # per target
        self.spans: list[dict] = []
        self._child = [0.0]      # callee time per open wrapped frame
        self._open: list[int] = []   # indices of open coarse spans
        self._undo: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, st: Stat, label: str, coarse: bool):
        child = self._child
        clock = time.perf_counter
        spans, open_spans = self.spans, self._open
        origin = self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            child.append(0.0)
            if coarse:
                spans.append({"name": label, "parent":
                              open_spans[-1] if open_spans else None})
                open_spans.append(len(spans) - 1)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                st.self_s += dt - inner
                st.depth -= 1
                if not st.depth:
                    st.incl += dt
                if coarse:
                    span = spans[open_spans.pop()]
                    span["start"] = t0 - origin
                    span["end"] = t0 + dt - origin
        return wrapper

    def _rebind(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self, module: str, target: str, coarse: bool) -> None:
        mod = importlib.import_module(f"tamekit.{module}")
        owner_name, _, attr = target.rpartition(".")
        label = f"{module}.{target}"
        st = self.stats[label] = Stat()
        self.bindings[label] = count = 0
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            return
        if owner_name:
            raw = owner.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            new = self._wrap(fn, st, label, coarse)
            new = classmethod(new) if is_cm else new
            for name, value in list(owner.__dict__.items()):
                if value is raw:
                    self._rebind(owner, name, new)
                    count += 1
        else:
            fn = owner.__dict__[attr]
            new = self._wrap(fn, st, label, coarse)
            for mod_name in sorted(sys.modules):
                other = sys.modules[mod_name]
                if mod_name != "tamekit" and \
                        not mod_name.startswith("tamekit."):
                    continue
                for name, value in list(vars(other).items()):
                    if value is fn:
                        self._rebind(other, name, new)
                        count += 1
        self.bindings[label] = count

    def remove(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def _import_program() -> None:
    for module in {t[0] for t in TARGETS} | {"cli"}:
        importlib.import_module(f"tamekit.{module}")


def run_traced(workload: str, out_dir: str) -> dict:
    import tamekit.cli as cli
    tracer = Tracer()
    for module, target, _, coarse, _ in TARGETS:
        tracer.install(module, target, coarse)
    codes = []
    t0 = time.perf_counter()
    try:
        for args in COMMANDS[workload]:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main([*args, "--out", out_dir]))
    finally:
        wall = time.perf_counter() - t0
        tracer.remove()
    by_key: dict[str, dict] = {}
    for module, target, key, _, _ in TARGETS:
        st = tracer.stats[f"{module}.{target}"]
        agg = by_key.setdefault(key, {"calls": 0, "incl_s": 0.0,
                                      "self_s": 0.0})
        agg["calls"] += st.calls
        agg["incl_s"] += st.incl
        agg["self_s"] += st.self_s
    return {
        "wall_s": wall,
        "exit_codes": codes,
        "bindings": tracer.bindings,
        "calls": {label: st.calls for label, st in tracer.stats.items()},
        "stats": by_key,
        "spans": tracer.spans,
    }


# ---------------------------------------------------------- kernel probes

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def _root_of_unity_mod(n: int) -> tuple[int, int]:
    """A prime ell = 1 mod n above 10**6 and a primitive n-th root mod ell:
    evaluation at it is a ring map Q(zeta_n) -> F_ell on ell-integral
    elements, independent of tamekit's reduction."""
    ell = (10 ** 6 // n + 1) * n + 1
    while not _is_prime(ell):
        ell += n
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for g in range(2, ell):
        r = pow(g, (ell - 1) // n, ell)
        if all(pow(r, n // q, ell) != 1 for q in factors):
            return ell, r
    raise ArithmeticError(f"no primitive {n}-th root mod {ell}")


def _evaluate(x, n: int, ell: int, r: int) -> int:
    k = n // x.n
    return sum(c.numerator * pow(c.denominator, -1, ell) * pow(r, e * k, ell)
               for e, c in x.coeffs.items()) % ell


def _timed(fn, operands, floor_s: float) -> float:
    """Median microseconds per call over passes through the operand list,
    measured for at least ``floor_s`` seconds and three passes."""
    per_call = []
    spent = 0.0
    while spent < floor_s or len(per_call) < 3:
        t0 = time.perf_counter()
        for args in operands:
            fn(*args)
        dt = time.perf_counter() - t0
        spent += dt
        per_call.append(dt / len(operands) * 1e6)
    return statistics.median(per_call)


def probe_mul(n: int, pairs: int, rng: random.Random) -> tuple[float, bool]:
    """Multiply seeded dense operands at conductor n: one rational
    coefficient on every exponent below phi(n)."""
    from tamekit.cyclotomic import CycNum
    phi = sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)

    def operand():
        return CycNum(n, {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                      rng.randint(1, 3)) for e in range(phi)})

    operands = [(operand(), operand()) for _ in range(pairs)]
    ell, r = _root_of_unity_mod(n)
    ok = all(_evaluate(a * b, n, ell, r)
             == _evaluate(a, n, ell, r) * _evaluate(b, n, ell, r) % ell
             for a, b in operands)
    return _timed(lambda a, b: a * b, operands, 0.4), ok


def probe_embed(rng: random.Random) -> tuple[float, bool]:
    """lambda-adic valuation at p = 79 of c * zeta_13^j * prod (1 - zeta_79^i)
    over k seeded i: a unit times k uniformizer-valued factors, so the
    valuation is exactly k."""
    from tamekit.cyclotomic import CycNum
    from tamekit.padic import lambda_valuation
    p, m = 79, 13
    n = p * m
    elements = []
    for _ in range(4):
        k = rng.randint(1, 4)
        poly = {0: 1}
        for _ in range(k):
            i = rng.randint(1, p - 1)
            nxt: dict[int, int] = {}
            for e, c in poly.items():
                nxt[e] = nxt.get(e, 0) + c
                nxt[(e + i) % p] = nxt.get((e + i) % p, 0) - c
            poly = nxt
        c, j = rng.randint(1, p - 1), rng.randint(0, m - 1)
        raw = {(e * m + j * p) % n: c * v for e, v in poly.items() if v}
        elements.append((CycNum(n, raw), k))
    ok = all(lambda_valuation(a, p) == k for a, k in elements)
    us = _timed(lambda a, _k: lambda_valuation(a, p), elements, 0.4)
    return us, ok


def run_probes(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    checks = []
    # One pass over the n = 930 pairs takes about half a second.
    for n, pairs in ((9, 8), (63, 8), (930, 2)):
        us, ok = probe_mul(n, pairs, rng)
        out[f"cyclotomic.mul_us.n{n}"] = us
        checks.append((f"probe:mul-n{n}", ok))
    us, ok = probe_embed(rng)
    out["padic.embed_us.p79"] = us
    checks.append(("probe:embed-p79", ok))
    return {"metrics": out, "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    _import_program()
    traced = run_traced(args.workload, args.out)
    spans = traced.pop("spans")
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "spans": spans}) + "\n")
    traced["probes"] = run_probes(args.seed)
    print(json.dumps(traced, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
