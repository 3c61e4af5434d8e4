"""Command-line front end: tables, pairings, verifiers, and the suite.

Every subcommand emits machine-readable output (JSON by default, CSV for
the tabular commands) and exits 0 when all requested checks pass, 1 when
a check fails, 2 on usage errors, and 3 when a computation cannot finish
(Dixon's lift or certification fails, or another internal fault).
Reports are deterministic: keys are sorted, orderings are fixed, and
nothing time- or path-dependent is written, so identical invocations
produce identical bytes.  Each command imports only the layers it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import gcd
from pathlib import Path

from .arith import is_prime, is_prime_power
from .characters import CharTable, VirtualChar
from .cyclotomic import CycNum
from .groups import (MAX_ORDER, PRESET_NAMES, FiniteGroup, cycle_string,
                     parse_cycles, preset)


class UsageError(Exception):
    pass


DEFAULT_CONFIG = {
    "groups": ["C3", "C5", "C7", "C9", "S3", "D5", "A4", "Q8", "F21"],
    "primes": [3, 5, 7, 11, 13, 31],
    "e_values": [3, 5, 7, 9],
    "crux": [[7, 3], [11, 5], [31, 3], [31, 5]],
    "format": "json",
}


class SuiteConfig:
    """Validated suite parameters; see DEFAULT_CONFIG for the shape."""

    __slots__ = ("groups", "primes", "e_values", "crux", "format")

    def __init__(self, data: dict):
        unknown = set(data) - set(DEFAULT_CONFIG)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged = {**DEFAULT_CONFIG, **data}
        for field in ("groups", "primes", "e_values", "crux"):
            if not isinstance(merged[field], list):
                raise UsageError(
                    f"{field} must be a list, got {merged[field]!r}")
        self.groups = list(merged["groups"])
        for name in self.groups:
            if not isinstance(name, str):
                raise UsageError(f"groups entries must be names, got {name!r}")
            try:
                preset(name)
            except ValueError as ex:
                raise UsageError(str(ex)) from None
        self.primes = [self._as_int("primes", p) for p in merged["primes"]]
        for p in self.primes:
            _check_prime(p, "primes")
        self.e_values = [self._as_int("e_values", e)
                         for e in merged["e_values"]]
        for e in self.e_values:
            if e < 1 or e % 2 == 0:
                raise UsageError(f"configured e = {e} must be odd and positive")
        self.crux = []
        for pair in merged["crux"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise UsageError(f"crux entries must be [p, e] pairs, "
                                 f"got {pair!r}")
            self.crux.append(tuple(self._as_int("crux", x) for x in pair))
        for p, e in self.crux:
            _check_crux(p, e)
        self.format = merged["format"]
        if self.format not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")

    @staticmethod
    def _as_int(field: str, value) -> int:
        """An int (not a bool) or a decimal string, as an int."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise UsageError(f"{field} must hold integers, got {value!r}")


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cyc_str(c: CycNum) -> str:
    if c.is_rational():
        return str(c.as_rational())
    bits = []
    for e, q in sorted(c.coeffs.items()):
        if e == 0:
            bits.append(f"{q}")
        elif q == 1:
            bits.append(f"z{c.n}^{e}")
        else:
            bits.append(f"({q})*z{c.n}^{e}")
    return " + ".join(bits)


def _resolve_group(name: str) -> FiniteGroup:
    try:
        return preset(name)
    except ValueError as ex:
        raise UsageError(str(ex)) from None


def _resolve_element(G: FiniteGroup, text: str) -> int:
    if text in G.names:
        return G.names.index(text)
    try:
        i = int(text)
    except ValueError:
        pass
    else:
        if not 0 <= i < G.n:
            raise UsageError(f"element index {i} out of range 0..{G.n - 1}")
        return i
    try:
        name = cycle_string(parse_cycles(text, MAX_ORDER))
    except ValueError as ex:
        raise UsageError(f"cannot parse element {text!r}: {ex}") from None
    if name in G.names:
        return G.names.index(name)
    raise UsageError(f"element {text!r} not in group; names: {G.names}")


def _check_tame(G: FiniteGroup, s: int, q: int | None, where: str) -> None:
    """Odd |s| and a residue size q, if given, that is a prime power prime
    to |s|."""
    m = G.element_order(s)
    if m % 2 == 0:
        raise UsageError(f"{where}: |s| = |{G.names[s]}| = {m} must be odd")
    if q is not None and (not is_prime_power(q) or gcd(m, q) != 1):
        raise UsageError(f"{where}: q = {q} must be a prime power prime "
                         f"to |s| = {m}")


def _check_prime(p: int, where: str) -> None:
    from .gaussjacobi import PRIME_CAP
    if not is_prime(p) or p > PRIME_CAP:
        raise UsageError(f"{where}: {p} is not a prime up to {PRIME_CAP}")


def _check_crux(p: int, e: int) -> None:
    """e odd and positive, p a prime up to PRIME_CAP, and e | p - 1."""
    where = f"crux pair ({p}, {e})"
    if e < 1 or e % 2 == 0:
        raise UsageError(f"{where}: e must be odd and positive")
    _check_prime(p, where)
    if (p - 1) % e:
        raise UsageError(f"{where}: e does not divide p - 1")


def _write_or_print(text: str, out: str | None, filename: str) -> None:
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text)
        print(f"wrote {path / filename}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands

def cmd_chartab(args) -> int:
    G = _resolve_group(args.group)
    table = CharTable.of(G)
    cert = table.certification
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["chi", "degree"] + list(table.to_dict()["class_reps"]))
        for t in range(table.k):
            w.writerow([f"chi{t}", table.degrees[t]]
                       + [_cyc_str(table.value(t, j)) for j in range(table.k)])
        _write_or_print(buf.getvalue(), args.out, f"chartab-{args.group}.csv")
    else:
        report = {"suite": "character table", "group": args.group,
                  "table": table.to_dict(), "certification": cert}
        _write_or_print(_dump(report), args.out, f"chartab-{args.group}.json")
    return 0 if cert["pass"] else 1


def cmd_pairing(args) -> int:
    from .stickelberger import pairing_table
    G = _resolve_group(args.group)
    s = _resolve_element(G, args.s)
    if args.star and G.element_order(s) % 2 == 0:
        raise UsageError(
            f"starred pairing needs odd |s|; |{G.names[s]}| is even")
    report = pairing_table(G, s, star=args.star)
    stem = f"pairing-{args.group}-{s}" + ("-star" if args.star else "")
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["chi", "degree", "value"])
        for row in report["rows"]:
            w.writerow([row["chi"], row["degree"], row["value"]])
        _write_or_print(buf.getvalue(), args.out, stem + ".csv")
    else:
        _write_or_print(_dump(report), args.out, stem + ".json")
    return 0


def cmd_localmodel_verify(args) -> int:
    from .localmodel import (infer_q, verify_factorization,
                             verify_kummer_generator)
    G = _resolve_group(args.group)
    s = _resolve_element(G, args.s)
    t = _resolve_element(G, args.t) if args.t is not None else None
    _check_tame(G, s, args.q, "localmodel verify")
    m = G.element_order(s)
    image = G.conjugate(t or 0, s)
    if image not in {G.power(s, k) for k in range(m)}:
        raise UsageError(f"t = {G.names[t]} does not normalize <{G.names[s]}>")
    # one residue size for both checks: --q, else the least prime q with
    # t s t^-1 = s^q
    q = args.q if args.q is not None else infer_q(G, s, t or 0)
    if G.power(s, q) != image:
        raise UsageError(f"t s t^-1 = s^q fails for q = {q}")
    if args.n is not None:
        if abs(args.n) >= m:
            raise UsageError(
                f"window offset {args.n} out of range for |s| = {m}")
        if not is_prime(q) or (q - 1) % m:
            raise UsageError(f"--n needs q = {q} to be a prime "
                             f"= 1 mod |s| = {m}")
    report = {"suite": "localmodel verify",
              "factorization": verify_factorization(G, s, t=t, q=q)}
    if args.n is not None:
        report["kummer"] = verify_kummer_generator(m, args.n, q=q)
    report["pass"] = all(
        report[k]["pass"] for k in ("factorization", "kummer") if k in report)
    _write_or_print(_dump(report), args.out,
                    f"localmodel-{args.group}-{s}.json")
    return 0 if report["pass"] else 1


def cmd_gauss(args) -> int:
    from .gaussjacobi import (MultChar, gauss_sum, j_star,
                              verify_gauss_identities, verify_jstar)
    p = args.p
    d = args.order if args.order is not None else p - 1
    _check_prime(p, "--p")
    if d < 1 or (p - 1) % d != 0:
        raise UsageError(f"order {d} does not divide {p} - 1")
    values = []
    for a in range(d):
        chi = MultChar(p, d, a)
        values.append({"a": a, "order": chi.order,
                       "tau": gauss_sum(chi).to_dict(),
                       "jstar": j_star(chi).to_dict()})
    report = {"suite": "gauss", "p": p, "d": d, "values": values,
              "identities": verify_gauss_identities(p),
              "jstar_checks": verify_jstar(p, d)}
    report["pass"] = report["identities"]["pass"] and report["jstar_checks"]["pass"]
    _write_or_print(_dump(report), args.out, f"gauss-p{p}-d{d}.json")
    return 0 if report["pass"] else 1


def cmd_crux(args) -> int:
    from .ledger import crux_check
    _check_crux(args.p, args.e)
    report = crux_check(args.p, args.e)
    _write_or_print(_dump(report), args.out, f"crux-p{args.p}-e{args.e}.json")
    return 0 if report["pass"] else 1


DEFAULT_PLACES = {
    "group": "S3",
    "places": [
        {"label": "v7", "q": 7, "s": "(1 2 3)"},
        {"label": "v13", "q": 13, "s": "(1 2 3)"},
        {"label": "v5", "q": 5, "s": "()"},
    ],
}


def _ledger_demo_report(data) -> dict:
    from .ledger import build_f, decompose, norm_restrict, recompose
    from .stickelberger import pairing, star_pairing
    if not isinstance(data, dict) or not isinstance(data.get("group"), str):
        raise UsageError("places file needs a group name string in \"group\"")
    G = _resolve_group(data["group"])
    entries = data.get("places")
    if not isinstance(entries, list) or not entries:
        raise UsageError(f"places must be a non-empty list, got {entries!r}")
    places = []
    for pl in entries:
        if not isinstance(pl, dict):
            raise UsageError(f"places entries must be objects, got {pl!r}")
        for field in ("label", "q", "s"):
            if field not in pl:
                raise UsageError(f"places entry {pl!r} has no {field}")
        label = pl["label"]
        if not isinstance(label, str):
            raise UsageError(f"label must be a string, got {label!r}")
        if any(label == seen for seen, _, _ in places):
            raise UsageError(f"duplicate place label {label!r}")
        q = SuiteConfig._as_int("q", pl["q"])
        s = _resolve_element(G, str(pl["s"]))
        _check_tame(G, s, q, f"place {label!r}")
        places.append((label, q, s))
    table = CharTable.of(G)
    f = build_f(G, places)
    parts = decompose(f)
    round_trip = recompose(parts) == f

    exponents_ok = True
    exp_rows = []
    for label, _, s in places:
        hom = f.hom(label)
        for i in range(table.k):
            chi = VirtualChar.irreducible(table, i)
            want = star_pairing(chi, s) - pairing(chi, s)
            got = hom.value(i).monomial_parts()
            ok = got is not None and got[0] == want and got[1] == \
                CycNum.from_rational(1)
            exponents_ok = exponents_ok and ok
            exp_rows.append({"place": label, "chi": f"chi{i}",
                             "exponent": str(want), "pass": ok})

    first = f.hom(places[0][0])
    identity_ok = norm_restrict(first, [1]) == first
    report = {
        "suite": "ledger-demo",
        "group": data["group"],
        "family": f.to_dict(),
        "factors": len(parts),
        "round_trip": round_trip,
        "exponents": exp_rows,
        "norm_restrict_identity": identity_ok,
        "pass": round_trip and exponents_ok and identity_ok,
    }
    return report


def cmd_ledger_demo(args) -> int:
    if args.places:
        try:
            data = json.loads(Path(args.places).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
            raise UsageError(f"cannot read places file: {ex}") from None
    else:
        data = DEFAULT_PLACES
    report = _ledger_demo_report(data)
    _write_or_print(_dump(report), args.out, "ledger-demo.json")
    return 0 if report["pass"] else 1


# ------------------------------------------------------------------- suite

def _suite_reports(config: SuiteConfig):
    """Yield (name, report) pairs in a fixed order."""
    from .gaussjacobi import verify_gauss_identities, verify_jstar
    from .ledger import crux_check
    from .localmodel import verify_factorization, verify_kummer_generator
    from .stickelberger import (verify_adams_identities,
                                verify_induction_identities)
    for name in config.groups:
        G = preset(name)
        checks = [verify_induction_identities(G, s) for s in range(G.n)]
        checks += [verify_adams_identities(G, s)
                   for s in range(G.n) if G.element_order(s) % 2 == 1]
        yield f"identities-{name}", {
            "suite": "stickelberger-identities", "group": name,
            "checks": checks, "pass": all(c["pass"] for c in checks)}

        cert = CharTable.of(G).certification
        yield f"chartab-{name}", {"suite": "chartab", "group": name, **cert}

        fac = [verify_factorization(G, s)
               for s in range(G.n) if G.element_order(s) % 2 == 1]
        yield f"factorization-{name}", {
            "suite": "factorization", "group": name,
            "checks": fac, "pass": all(c["pass"] for c in fac)}

    for e in config.e_values:
        offsets = [0] if e == 1 else [0, (1 - e) // 2, 1, e - 1]
        checks = [verify_kummer_generator(e, n) for n in offsets]
        yield f"kummer-e{e}", {"suite": "kummer", "e": e, "checks": checks,
                               "pass": all(c["pass"] for c in checks)}

    for p in config.primes:
        ident = verify_gauss_identities(p)
        jst = verify_jstar(p)
        yield f"gauss-p{p}", {"suite": "gauss", "p": p, "identities": ident,
                              "jstar": jst,
                              "pass": ident["pass"] and jst["pass"]}

    yield "ledger-demo", _ledger_demo_report(DEFAULT_PLACES)

    for p, e in config.crux:
        yield f"crux-p{p}-e{e}", crux_check(p, e)


def run_suite(config: SuiteConfig, out_dir: str) -> int:
    """Run every verifier, write one report per check, return exit code."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    summary = []
    failed = []
    for name, report in _suite_reports(config):
        (path / f"{name}.json").write_text(_dump(report))
        ok = bool(report["pass"])
        summary.append({"check": name, "pass": ok})
        if not ok:
            failed.append(name)
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if config.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check", "pass"])
        for row in summary:
            w.writerow([row["check"], str(row["pass"]).lower()])
        (path / "summary.csv").write_text(buf.getvalue())
    else:
        (path / "summary.json").write_text(
            _dump({"checks": summary, "pass": not failed}))
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
        return 1
    return 0


def _load_config(path_text: str | None) -> dict:
    if path_text is None:
        return {}
    path = Path(path_text)
    try:
        raw = path.read_bytes()
    except OSError as ex:
        raise UsageError(f"cannot read config: {ex}") from None
    try:
        if path.suffix == ".toml":
            import tomllib
            data = tomllib.loads(raw.decode())
        else:
            data = json.loads(raw)
    except ImportError:
        raise UsageError("TOML config needs Python 3.11+; use JSON") from None
    except ValueError as ex:  # not UTF-8, or not valid TOML or JSON
        raise UsageError(f"bad config {path_text}: {ex}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path_text} must hold a JSON object, "
                         f"got {json.dumps(data)}")
    return data


def cmd_suite(args) -> int:
    data = _load_config(args.config)
    if args.format:
        data["format"] = args.format
    config = SuiteConfig(data)
    return run_suite(config, args.out)


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamekit",
        description="exact verification suites for tame symbolic models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=False):
        p.add_argument("--out", help="directory to write reports into")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"],
                           default="json")

    p = sub.add_parser("chartab", help="certified character table")
    p.add_argument("--group", required=True,
                   help=f"preset name ({', '.join(PRESET_NAMES)} or C<n>)")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("pairing", help="pairing values for one element")
    p.add_argument("--group", required=True)
    p.add_argument("--s", required=True,
                   help="element index, name, or cycle notation")
    p.add_argument("--star", action="store_true",
                   help="use the symmetric-window pairing")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("localmodel", help="symbolic local-model checks")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pv = lsub.add_parser("verify", help="factorization and generator checks")
    pv.add_argument("--group", required=True)
    pv.add_argument("--s", required=True)
    pv.add_argument("--t", help="Frobenius image (default: identity)")
    pv.add_argument("--q", type=int, help="residue size (default: inferred)")
    pv.add_argument("--n", type=int,
                    help="also run the generator check at this window offset")
    add_common(pv)
    pv.set_defaults(func=cmd_localmodel_verify)

    p = sub.add_parser("gauss", help="Gauss/Jacobi sums and identity sweep")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, help="character order (default p-1)")
    add_common(p)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("crux", help="p-adic valuation crux check")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_crux)

    p = sub.add_parser("ledger", help="representing-homomorphism utilities")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pd = lsub.add_parser("demo", help="build, decompose, recompose a family")
    pd.add_argument("--places", help="JSON file with group and places")
    add_common(pd)
    pd.set_defaults(func=cmd_ledger_demo)

    p = sub.add_parser("suite", help="run every verifier and write reports")
    p.add_argument("--config", help="JSON config file (see docs)")
    p.add_argument("--out", default="reports",
                   help="report directory (default: reports)")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # a computation that cannot finish, or a fault
        print("error: " + " ".join(f"{type(ex).__name__}: {ex}".split()),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
