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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .characters import CharTable, VirtualChar
from .cyclotomic import CycNum
from .groups import (MAX_ORDER, PRESET_NAMES, FiniteGroup, ascii_int, clip,
                     cycle_string, parse_cycles, preset)


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
        from .gaussjacobi import check_modulus
        from .ledger import check_crux
        from .localmodel import check_window
        _check_keys(data, DEFAULT_CONFIG, "config")
        merged = {**DEFAULT_CONFIG, **data}
        for field in ("groups", "primes", "e_values", "crux"):
            if not isinstance(merged[field], list):
                raise UsageError(
                    f"{field} must be a list, got {_shown(merged[field])}")
        self.groups = list(merged["groups"])
        for name in self.groups:
            if not isinstance(name, str):
                raise UsageError(f"groups must hold names, got {_shown(name)}")
            _resolve_group(name)
        self.primes = [self._as_int("primes", p) for p in merged["primes"]]
        for p in self.primes:
            _checked("primes", check_modulus, p, p - 1)
        self.e_values = [self._as_int("e_values", e)
                         for e in merged["e_values"]]
        for e in self.e_values:
            _checked("e_values", check_window, e, 0, None)
            if e % 2 == 0:
                raise UsageError(f"e_values: order e = {e} must be odd")
        self.crux = []
        for pair in merged["crux"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise UsageError(f"crux entries must be [p, e] pairs, "
                                 f"got {_shown(pair)}")
            self.crux.append(tuple(self._as_int("crux", x) for x in pair))
        for p, e in self.crux:
            _checked(f"crux pair ({p}, {e})", check_crux, p, e)
        self.format = fmt = merged["format"]
        if fmt not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {_shown(fmt)}")

    @staticmethod
    def _as_int(field: str, value) -> int:
        """An int (not a bool), or a string that `ascii_int` reads."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return ascii_int(value)
            except ValueError:
                pass
        raise UsageError(f"{field} must hold integers, got {_shown(value)}")


def _shown(value) -> str:
    """An outside value for a message, cut by `clip`: a string quoted,
    anything else as its repr."""
    return repr(clip(value)) if isinstance(value, str) else clip(repr(value))


def _check_keys(data: dict, known, what: str) -> None:
    """UsageError naming the first key of data, in sorted order, that
    known lacks, and how many more there are."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        more = f" and {len(unknown) - 1} more" if unknown[1:] else ""
        raise UsageError(f"unknown {what} key {_shown(unknown[0])}{more}")


def _dump(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + newline, byte for
    byte, for reports of exactly str, int, bool, None, lists and str-keyed
    dicts; anything else raises TypeError.  The stdlib encoder runs in pure
    Python when indenting, and this writer takes about half its time."""
    leaf = _LEAVES.get(type(report))
    return (leaf(report) if leaf else _json(report, "\n", {})) + "\n"


# Each leaf type's renderer, a C callable: no leaf costs a Python frame.
_LEAVES = {str: _quote, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _json(x, pad: str, memo: dict) -> str:
    """The list or dict x at indent pad, its leaves rendered inline and
    never memoized.  memo maps (id, pad) of each list and dict to its text,
    so a shared one, as a character table's values are, is rendered once."""
    key = id(x), pad
    if key in memo:
        return memo[key]
    inner, leaf = pad + "  ", _LEAVES.get
    if isinstance(x, list):
        items = [f(v) if (f := leaf(type(v))) else _json(v, inner, memo)
                 for v in x]
        text = f"[{inner}{(',' + inner).join(items)}{pad}]" if x else "[]"
    elif isinstance(x, dict):  # _quote raises TypeError on a non-str key
        items = [f"{_quote(k)}: {f(v) if (f := leaf(type(v))) else _json(v, inner, memo)}"
                 for k, v in sorted(x.items())]
        text = f"{{{inner}{(',' + inner).join(items)}{pad}}}" if x else "{}"
    else:
        raise TypeError(f"{type(x).__name__} is not a report value")
    memo[key] = text
    return text


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


# the order in which _resolve_element reads --s and --t
_ELEMENT_HELP = ("element name, else index, else cycle notation; a name "
                 "wins, so Q8's '1' is its identity, index 0")


def _resolve_element(G: FiniteGroup, text: str, flag: str) -> int:
    """The element of G that text, given for flag, names."""
    if text in G.names:
        return G.names.index(text)
    where = f"{flag}: element {_shown(text)}"
    try:
        i = ascii_int(text)
    except ValueError:
        pass
    else:
        if not 0 <= i < G.n:
            raise UsageError(f"{where}: index out of range 0..{G.n - 1}")
        return i
    try:
        name = cycle_string(parse_cycles(text, MAX_ORDER))
    except ValueError as ex:
        raise UsageError(f"{where}: cannot parse it: {ex}") from None
    if name in G.names:
        return G.names.index(name)
    raise UsageError(f"{where}: not in the group")


def _checked(where: str, check, *args):
    """check(*args), a library input check, whose ValueError becomes a
    UsageError prefixed by where.  Only checks go through here: a
    ValueError from a computation is a fault and exits 3."""
    try:
        return check(*args)
    except ValueError as ex:
        raise UsageError(f"{where}: {ex}") from None


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
        rows = [["chi", "degree"] + [G.names[r] for r in table.reps]]
        rows += [[f"chi{t}", table.degrees[t]]
                 + [_cyc_str(table.value(t, j)) for j in range(table.k)]
                 for t in range(table.k)]
        _write_or_print(_csv(rows), args.out, f"chartab-{args.group}.csv")
    else:
        report = {"suite": "character table", "group": args.group,
                  "table": table.to_dict(), "certification": cert}
        _write_or_print(_dump(report), args.out, f"chartab-{args.group}.json")
    return 0 if cert["pass"] else 1


def cmd_pairing(args) -> int:
    from .stickelberger import check_tame, pairing_table
    G = _resolve_group(args.group)
    s = _resolve_element(G, args.s, "--s")
    if args.star:
        _checked("pairing", check_tame, G, s, None)
    report = pairing_table(G, s, star=args.star)
    stem = f"pairing-{args.group}-{s}" + ("-star" if args.star else "")
    if args.format == "csv":
        rows = [[r["chi"], r["degree"], r["value"]] for r in report["rows"]]
        _write_or_print(_csv([["chi", "degree", "value"]] + rows), args.out,
                        stem + ".csv")
    else:
        _write_or_print(_dump(report), args.out, stem + ".json")
    return 0


def cmd_localmodel_verify(args) -> int:
    from .localmodel import (check_window, infer_q, verify_factorization,
                             verify_kummer_generator)
    from .stickelberger import check_tame
    G = _resolve_group(args.group)
    s = _resolve_element(G, args.s, "--s")
    t = _resolve_element(G, args.t, "--t") if args.t is not None else 0
    where = "localmodel verify"
    m = _checked(where, check_tame, G, s, args.q, t)
    # one residue size for both checks: --q, else the least prime q with
    # t s t^-1 = s^q
    q = args.q if args.q is not None else infer_q(G, s, t)
    if args.n is not None:
        _checked(where, check_window, m, args.n, q)
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
    from .gaussjacobi import (MultChar, check_modulus, gauss_sum, j_star,
                              verify_gauss_identities, verify_jstar)
    p = args.p
    d = args.order if args.order is not None else p - 1
    _checked("gauss", check_modulus, p, d)
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
    from .ledger import check_crux, crux_check
    _checked(f"crux pair ({args.p}, {args.e})", check_crux, args.p, args.e)
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
    from .ledger import (build_f, check_places, decompose, family_dict,
                         norm_restrict, recompose)
    from .localmodel import TameElement
    from .stickelberger import pairing, star_pairing
    if not isinstance(data, dict) or not isinstance(data.get("group"), str):
        raise UsageError("places file needs a group name string in \"group\"")
    _check_keys(data, DEFAULT_PLACES, "places file")
    G = _resolve_group(data["group"])
    entries = data.get("places")
    if not isinstance(entries, list) or not entries:
        raise UsageError(
            f"places must be a non-empty list, got {_shown(entries)}")
    places = []
    for pl in entries:
        if not isinstance(pl, dict):
            raise UsageError(
                f"places entries must be objects, got {_shown(pl)}")
        _check_keys(pl, ("label", "q", "s"), "places entry")
        for field in ("label", "q", "s"):
            if field not in pl:
                raise UsageError(f"places entry {_shown(pl)} has no {field}")
        label = pl["label"]
        if not isinstance(label, str):
            raise UsageError(f"label must be a string, got {_shown(label)}")
        places.append((label, SuiteConfig._as_int("q", pl["q"]),
                       _resolve_element(G, str(pl["s"]), "s")))
    _checked("ledger demo", check_places, G, places)
    table = CharTable.of(G)
    f = build_f(G, places)
    parts = decompose(f)
    round_trip = recompose(parts) == f

    exponents_ok = True
    exp_rows = []
    for label, _, s in places:
        hom = f[label][2]
        for i in range(table.k):
            chi = VirtualChar.irreducible(table, i)
            want = star_pairing(chi, s) - pairing(chi, s)
            ok = hom[i] == TameElement(want)
            exponents_ok = exponents_ok and ok
            exp_rows.append({"place": label, "chi": f"chi{i}",
                             "exponent": str(want), "pass": ok})

    first = f[places[0][0]][2]
    identity_ok = norm_restrict(table, first, [1]) == first
    report = {
        "suite": "ledger-demo",
        "group": data["group"],
        "family": family_dict(G, f),
        "factors": len(parts),
        "round_trip": round_trip,
        "exponents": exp_rows,
        "norm_restrict_identity": identity_ok,
        "pass": round_trip and exponents_ok and identity_ok,
    }
    return report


def cmd_ledger_demo(args) -> int:
    data = _read_json(args.places, "places file") if args.places \
        else DEFAULT_PLACES
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
        (path / "summary.csv").write_text(_csv(
            [["check", "pass"]]
            + [[row["check"], str(row["pass"]).lower()] for row in summary]))
    else:
        (path / "summary.json").write_text(
            _dump({"checks": summary, "pass": not failed}))
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
        return 1
    return 0


def _read_json(path_text: str, what: str):
    """The JSON value in a file, read for --config or --places."""
    try:
        return json.loads(Path(path_text).read_text(encoding="utf-8"))
    except (OSError, ValueError) as ex:  # ValueError: not UTF-8, or not JSON
        raise UsageError(f"cannot read {what} {path_text}: {ex}") from None


def cmd_suite(args) -> int:
    data = {} if args.config is None else _read_json(args.config, "config")
    if not isinstance(data, dict):
        raise UsageError(f"config {args.config} must hold a JSON object, "
                         f"got {_shown(data)}")
    if args.format:
        data["format"] = args.format
    config = SuiteConfig(data)
    return run_suite(config, args.out)


# ------------------------------------------------------------------ parser

def _int_flag(text: str) -> int:
    """`ascii_int` for an option: argparse prints an ArgumentTypeError's
    message, which is cut, where it would quote a ValueError's text whole."""
    try:
        return ascii_int(text)
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex)) from None


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
    p.add_argument("--s", required=True, help=_ELEMENT_HELP)
    p.add_argument("--star", action="store_true",
                   help="use the symmetric-window pairing")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("localmodel", help="symbolic local-model checks")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pv = lsub.add_parser("verify", help="factorization and generator checks")
    pv.add_argument("--group", required=True)
    pv.add_argument("--s", required=True, help=_ELEMENT_HELP)
    pv.add_argument("--t", help="Frobenius image, read as --s is "
                    "(default: identity)")
    pv.add_argument("--q", type=_int_flag,
                    help="residue size (default: inferred)")
    pv.add_argument("--n", type=_int_flag,
                    help="also run the generator check at this window offset")
    add_common(pv)
    pv.set_defaults(func=cmd_localmodel_verify)

    p = sub.add_parser("gauss", help="Gauss/Jacobi sums and identity sweep")
    p.add_argument("--p", type=_int_flag, required=True)
    p.add_argument("--order", type=_int_flag,
                   help="character order (default p-1)")
    add_common(p)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("crux", help="p-adic valuation crux check")
    p.add_argument("--p", type=_int_flag, required=True)
    p.add_argument("--e", type=_int_flag, required=True)
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
