"""Command-line behavior: exit codes, report files, determinism."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tamekit
import tamekit.cli as cli
import tamekit.gaussjacobi as gaussjacobi
from tamekit.cli import DEFAULT_CONFIG, SuiteConfig, UsageError, main
from tamekit.gaussjacobi import MultChar, verify_gauss_identities
from tamekit.groups import clip, preset
from tamekit.ledger import build_f, crux_check
from tamekit.localmodel import verify_factorization, verify_kummer_generator
from tamekit.stickelberger import pairing_table

# sha256 of the benchmark's reports, committed with it (read, never written).
EXPECTED = Path(__file__).resolve().parents[1] / "tamebench" / "expected.json"


def test_chartab_stdout_json(capsys):
    assert main(["chartab", "--group", "S3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group"] == "S3"
    assert report["certification"]["pass"]


def test_chartab_reports_match_committed_digests(tmp_path, capsys):
    # The benchmark's chartab workload: C27 and C32 as json.
    pinned = json.loads(EXPECTED.read_text())["chartab"]
    for group in ("C27", "C32"):
        assert main(["chartab", "--group", group, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == pinned


def test_chartab_loads_only_the_character_layer(tmp_path):
    # A fresh interpreter: importing the CLI and running chartab leave the
    # pairing, local-model, Gauss-sum, ledger and lambda-adic layers out.
    script = f"""
import json, sys
import tamekit.cli
loaded = [sorted(sys.modules)]
out = {str(tmp_path)!r}
assert tamekit.cli.main(["chartab", "--group", "C9", "--out", out]) == 0
loaded.append(sorted(sys.modules))
print(json.dumps(loaded))
"""
    src = str(Path(tamekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    skipped = {f"tamekit.{m}" for m in ("gaussjacobi", "ledger", "localmodel",
                                        "stickelberger", "padic")}
    for modules in json.loads(out.splitlines()[-1]):
        assert "tamekit.characters" in modules
        assert not skipped & set(modules), skipped & set(modules)
    assert (tmp_path / "chartab-C9.json").is_file()


def test_chartab_csv(capsys):
    assert main(["chartab", "--group", "C5", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][:2] == ["chi", "degree"]
    assert len(rows) == 6  # header + five characters


def test_pairing_element_forms(capsys):
    for elt in ["(1 2 3)", "4"]:
        assert main(["pairing", "--group", "S3", "--s", elt]) == 0
        json.loads(capsys.readouterr().out)


def test_a_name_wins_over_an_index(capsys):
    # Q8's element 0 is named 1, so --s 1 is index 0, not index 1 (-1),
    # and the help gives that order
    assert main(["pairing", "--group", "Q8", "--s", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == "1"
    assert main(["pairing", "--group", "Q8", "--s", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == "-1"
    for argv in (["pairing"], ["localmodel", "verify"]):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "element name, else index, else cycle notation; a name " \
            "wins, so Q8's '1' is its identity, index 0" in help_text, argv


@pytest.mark.parametrize("argv", [
    ["chartab", "--group", "C\u00b3"],
    ["chartab", "--group", "C05"],
    ["pairing", "--group", "C\u0663", "--s", "1"],
])
def test_cyclic_names_outside_ascii_canonical_digits_exit_two(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: unknown group preset {argv[2]!r}"), err
    assert not out


def test_suite_rejects_a_cyclic_name_with_a_leading_zero(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"groups": ["C05"]}))
    assert main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown group preset 'C05'")
    assert not (tmp_path / "r").exists()


def test_pairing_csv(capsys):
    assert main(["pairing", "--group", "C3", "--s", "1", "--format",
                 "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["chi", "degree", "value"]
    assert len(rows) == 4


USAGE_ERRORS = [
    ["pairing", "--group", "NOPE", "--s", "0"],
    ["pairing", "--group", "S3", "--s", "17"],
    ["pairing", "--group", "S3", "--s", "(1 2)", "--star"],
    ["crux", "--p", "11", "--e", "4"],
    ["crux", "--p", "12", "--e", "3"],
    ["crux", "--p", "103", "--e", "3"],
    ["gauss", "--p", "9"],
    ["gauss", "--p", "7", "--order", "4"],
    ["gauss", "--p", "103"],
    # 2^61 - 1 is prime; the cap is checked before trial division
    ["gauss", "--p", "2305843009213693951"],
    ["crux", "--p", "2305843009213693951", "--e", "3"],
    ["localmodel", "verify", "--group", "S3", "--s", "(1 2)"],
    ["localmodel", "verify", "--group", "C9", "--s", "1", "--q", "3"],
    ["localmodel", "verify", "--group", "C9", "--s", "1", "--q", "6"],
    ["localmodel", "verify", "--group", "C9", "--s", "1", "--q", "5"],
    ["localmodel", "verify", "--group", "F21", "--s", "2", "--t", "1"],
    ["localmodel", "verify", "--group", "S3", "--s", "(1 2 3)",
     "--n", "3"],
    # --q fits the factorization but not the Kummer unit check
    ["localmodel", "verify", "--group", "F21", "--s", "(1 2 3 4 5 6 7)",
     "--t", "(2 3 5)(4 7 6)", "--q", "2", "--n", "3"],
    ["localmodel", "verify", "--group", "C9", "--s", "1", "--q", "64",
     "--n", "1"],
    # 2^61 - 1 is a prime = 1 mod 3, above the residue-size bound; it
    # is rejected before trial division starts
    ["localmodel", "verify", "--group", "C3", "--s", "1",
     "--q", "2305843009213693951"],
    ["localmodel", "verify", "--group", "C3", "--s", "1",
     "--q", "2305843009213693951", "--n", "1"],
    # without --q, q = 2 is inferred from t, and --n needs q = 1 mod 7
    ["localmodel", "verify", "--group", "F21", "--s", "(1 2 3 4 5 6 7)",
     "--t", "(2 3 5)(4 7 6)", "--n", "3"],
    # element text that is not a permutation, or too large to be one
    ["pairing", "--group", "S3", "--s", "(1 2)(1 3)"],
    ["pairing", "--group", "S3", "--s", "(1 1000000000)"],
    # index and points that int() reads but that are not ASCII decimals
    ["pairing", "--group", "S3", "--s", " 1"],
    ["pairing", "--group", "S3", "--s", "\u0661"],
    ["pairing", "--group", "S3", "--s", "(\u0661 \u0662 \u0663)"],
    ["localmodel", "verify", "--group", "F21", "--s", "1", "--t", "1_0"],
    # a cyclic name past int()'s limit on digits
    ["chartab", "--group", "C" + "1" * 5000],
    # element text is read as given: empty text is no element, and no
    # space is stripped from around a cycle
    ["pairing", "--group", "S3", "--s", ""],
    ["pairing", "--group", "S3", "--s", " "],
    ["pairing", "--group", "S3", "--s", " (1 2 3) "],
]


@pytest.mark.parametrize("group, text, line", [
    ("S3", "", "error: --s: element '': cannot parse it: bad cycle "
               "notation\n"),
    ("S3", "1" * 5000, "error: --s: element '11111111...': cannot parse "
                       "it: bad cycle notation\n"),
    ("S3", "(" + " ".join(["1"] * 5000) + ")",
     "error: --s: element '(1 1 1 1...': cannot parse it: bad cycle: "
     "(1 1 1 1 ...)\n"),
    # a permutation outside the group: its 360 names are not listed
    ("C360", "(1 2)", "error: --s: element '(1 2)': not in the group\n"),
], ids=["empty", "5000-ones", "5000-point-cycle", "not-in-C360"])
def test_element_errors_name_the_text_once_and_short(group, text, line,
                                                     tmp_path, capsys):
    assert main(["pairing", "--group", group, "--s", text,
                 "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err == line and len(err.encode()) <= 200, err[:300]
    assert not out and not list(tmp_path.iterdir())


def test_cyclic_name_past_the_digit_limit_exits_two(tmp_path, capsys):
    name = "C" + "1" * 5000
    assert main(["chartab", "--group", name]) == 2
    assert capsys.readouterr().err == \
        "error: bad cyclic order 11111111...\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"groups": [name]}))
    assert main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == \
        "error: bad cyclic order 11111111...\n"
    assert not (tmp_path / "r").exists()


def test_usage_errors_exit_two(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["crux", "--p", "7", "--e", "3"],
    ["localmodel", "verify", "--group", "S3", "--s", "(1 2 3)", "--n", "1"],
    ["suite"],
])
def test_precision_is_not_an_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "8"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_crux_and_gauss_pass(capsys):
    assert main(["crux", "--p", "7", "--e", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert main(["gauss", "--p", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_gauss_computes_each_jstar_once(monkeypatch, tmp_path, capsys):
    # Only j_star calls tau_inverse, once per nontrivial character.
    gaussjacobi.j_star.cache_clear()
    calls = []
    real = gaussjacobi.tau_inverse
    monkeypatch.setattr(gaussjacobi, "tau_inverse",
                        lambda chi: calls.append(chi) or real(chi))
    assert main(["gauss", "--p", "31", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) <= 29, len(calls)


def test_gauss_report_matches_its_pinned_digest(tmp_path, capsys):
    assert main(["gauss", "--p", "31", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = (tmp_path / "gauss-p31-d30.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "707dfd0a1fd34635ddf4244294e158a5aaacc7507316c124596f3690b60298fc")


# sha256 of reports whose bytes are fixed.
@pytest.mark.parametrize("argv, name, digest", [
    (["pairing", "--group", "S3", "--s", "(1 2 3)", "--star"],
     "pairing-S3-2-star.json",
     "e3db1307f84463499a7ef24ea8610e92ab027e984d52c2885a225acb01d48cde"),
    (["localmodel", "verify", "--group", "F21", "--s", "(1 2 3 4 5 6 7)",
      "--n", "3"],
     "localmodel-F21-1.json",
     "b9923ffb577532df0a45e65eedac672427ce3e028bc61b16a18445ee7a0eb4fe"),
    (["crux", "--p", "31", "--e", "5"],
     "crux-p31-e5.json",
     "e7966b5c1aedd2364d2c70253d01e3a797bde88dab6290d8f69d0ff183e5316a"),
    # a prime conductor: zeta_19^18 reduces to a dense vector
    (["localmodel", "verify", "--group", "C19", "--s", "1", "--n", "1"],
     "localmodel-C19-1.json",
     "89f8b70e732f933c3e2c4b5b3f4558eb43106ff4619098cfa1b6822aaad5f536"),
    (["crux", "--p", "101", "--e", "25"],
     "crux-p101-e25.json",
     "c50ce74b81ccca637c1535f33a2bbca3d6342b7b0e5c1e667e4887b4153f7cb1"),
    (["gauss", "--p", "61"],
     "gauss-p61-d60.json",
     "a1661cf13252ff8d27f7fd40b5ea79318b3b746f42d446a160f414b86721185b"),
    # order 45 = 3^2 5, a conductor that is not a prime power
    (["localmodel", "verify", "--group", "C45", "--s", "1"],
     "localmodel-C45-1.json",
     "4da21dbffc83f2673149e0f18d5962ba019b60b8fcb595d1d52b9f77d76999cd"),
    # the Kummer check at a composite order, off the default window
    (["localmodel", "verify", "--group", "C45", "--s", "1", "--n", "-22"],
     "localmodel-C45-1.json",
     "a517f5f2484ee533eeffafd2f76ac99a080dee5d36fb25b346a41d883c9c3f04"),
    # the largest prime ladder in the console-script checks
    (["localmodel", "verify", "--group", "C43", "--s", "1"],
     "localmodel-C43-1.json",
     "79e92beb5c50f0150a42d12a11cd8731a7a0cdf2d9a5823acc5d15044d85fab8"),
])
def test_report_matches_its_pinned_digest(argv, name, digest, tmp_path,
                                          capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = (tmp_path / name).read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


def test_localmodel_verify(capsys):
    assert main(["localmodel", "verify", "--group", "S3", "--s", "(1 2 3)",
                 "--n", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["factorization"]["pass"] and report["kummer"]["pass"]


def test_localmodel_verify_at_a_large_q_within_budget(capsys):
    # 0.001 s for the unit check on a 2-core x86-64 VM, CPython 3.11
    start = time.perf_counter()
    assert main(["localmodel", "verify", "--group", "C3", "--s", "1",
                 "--n", "1", "--q", "100003"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2, elapsed
    unit = json.loads(capsys.readouterr().out)["kummer"]["unit_determinant"]
    assert unit["q"] == 100003 and unit["lambda_valuation"] == 0


def test_ledger_demo(capsys):
    assert main(["ledger", "demo"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["round_trip"] and report["pass"]
    assert report["factors"] == 3


def test_out_directory(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["chartab", "--group", "C3", "--out", str(out)]) == 0
    capsys.readouterr()
    written = json.loads((out / "chartab-C3.json").read_text())
    assert written["certification"]["pass"]


def test_suite_config_validation():
    SuiteConfig({})  # defaults are valid
    with pytest.raises(UsageError):
        SuiteConfig({"bogus": 1})
    with pytest.raises(UsageError):
        SuiteConfig({"primes": [9]})
    with pytest.raises(UsageError):
        SuiteConfig({"primes": [103]})  # beyond PRIME_CAP
    with pytest.raises(UsageError):
        SuiteConfig({"crux": [[103, 3]]})
    with pytest.raises(UsageError):
        SuiteConfig({"e_values": [4]})
    with pytest.raises(UsageError):
        SuiteConfig({"crux": [[11, 4]]})
    with pytest.raises(UsageError):
        SuiteConfig({"crux": [[11, 3]]})  # 3 does not divide 10
    with pytest.raises(UsageError):
        SuiteConfig({"format": "yaml"})
    # an unknown key, cut to 8 characters as every quoted input is
    with pytest.raises(UsageError,
                       match=r"^unknown config key 'precisio\.\.\.'$"):
        SuiteConfig({"precision": 8})
    assert SuiteConfig({"primes": ["5"], "crux": [["7", 3]]}).crux == [(7, 3)]
    assert SuiteConfig._as_int("q", "-13") == -13
    assert SuiteConfig._as_int("q", "0013") == 13
    assert SuiteConfig({}).groups == DEFAULT_CONFIG["groups"]


def test_suite_runs_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "groups": ["C3", "S3"], "primes": [5], "e_values": [3],
        "crux": [[7, 3]]}))
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["suite", "--config", str(config),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        outs.append({f.name: f.read_bytes()
                     for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    summary = json.loads(outs[0]["summary.json"].decode())
    assert summary["pass"]
    assert {c["check"] for c in summary["checks"]} == {
        "identities-C3", "chartab-C3", "factorization-C3",
        "identities-S3", "chartab-S3", "factorization-S3",
        "kummer-e3", "gauss-p5", "ledger-demo", "crux-p7-e3"}


def test_suite_csv_summary(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "groups": ["C3"], "primes": [3], "e_values": [1], "crux": []}))
    out = tmp_path / "r"
    assert main(["suite", "--config", str(config), "--format", "csv",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))
    assert rows[0] == ["check", "pass"]
    assert all(row[1] == "true" for row in rows[1:])


def test_suite_bad_config_exits_two(tmp_path, capsys):
    cases = [
        ("nope.json", None),
        ("bad.json", b"{not json"),
        ("latin1.json", b'{"groups": ["\xff"]}'),
        ("bad.toml", b"groups = [not toml"),
        ("latin1.toml", b'groups = ["\xff"]'),
    ]
    for name, content in cases:
        config = tmp_path / name
        if content is not None:
            config.write_bytes(content)
        assert main(["suite", "--config", str(config),
                     "--out", str(tmp_path / "r")]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "r").exists()


MALFORMED_CONFIGS = [
    {"primes": 5},
    {"groups": "S3"},
    {"groups": [5]},
    {"e_values": [3.5]},
    {"e_values": [True]},
    {"crux": [[7, 3, 1]]},
    {"crux": [7]},
    {"crux": [[7, "x"]]},
    {"precision": 2.5},
    {"e_values": [361]},
    {"primes": ["\u0661\u0663"]},  # 13 in Arabic-Indic digits
]


@pytest.mark.parametrize("data", MALFORMED_CONFIGS)
def test_suite_malformed_config_exits_two(data, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    [field] = data
    assert clip(field) in err, err
    assert not (tmp_path / "r").exists()


# strings that int() reads but that are not an optional - and ASCII
# digits, and ASCII digits past int()'s limit on their number
@pytest.mark.parametrize("text", [
    "1_000", "\u0661\u0663", "\uff11\uff13", " 13", "13\n", "+13", " 1",
    "\u0661",
    pytest.param("1" * 5000, id="5000-digits", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() has no limit on digits"))])
def test_integer_strings_must_be_ascii_decimals(text, tmp_path, capsys):
    # every field _as_int reads, named in the error with the input
    for field, data in (("primes", {"primes": [text]}),
                        ("e_values", {"e_values": [text]}),
                        ("crux", {"crux": [[text, 3]]})):
        with pytest.raises(UsageError) as info:
            SuiteConfig(data)
        assert str(info.value) == \
            f"{field} must hold integers, got {clip(text)!r}"
    places = tmp_path / "places.json"
    places.write_text(json.dumps(
        {"group": "S3", "places": [{**_PLACE, "q": text}]}))
    assert main(["ledger", "demo", "--places", str(places),
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == \
        f"error: q must hold integers, got {clip(text)!r}\n"
    # every integer option, named by argparse with `ascii_int`'s message
    out = ["--out", str(tmp_path / "r")]
    local = ["localmodel", "verify", "--group", "C9", "--s", "1"]
    for argv, flag in ((["gauss", "--p", text], "--p"),
                       (["gauss", "--p", "13", "--order", text], "--order"),
                       (["crux", "--p", text, "--e", "3"], "--p"),
                       (["crux", "--p", "7", "--e", text], "--e"),
                       ([*local, "--q", text], "--q"),
                       ([*local, "--n", text], "--n")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # after argparse's usage lines, which depend on the command alone
        line = err.splitlines()[-1]
        assert line.endswith(f"error: argument {flag}: not an integer: "
                             f"{clip(text)!r}"), err
        assert len(line.encode()) <= 200, err[:300]
    # an element index, where int() alone would pick an element
    for argv, flag in ((["pairing", "--group", "S3", "--s", text], "--s"),
                       (["localmodel", "verify", "--group", "F21", "--s",
                         "1", "--t", text], "--t")):
        assert main([*argv, *out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: element ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
@pytest.mark.parametrize("data", [None, [{}], [1], "abc", 3])
def test_suite_config_that_is_not_an_object_exits_two(data, fmt, tmp_path,
                                                      capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "r"), *fmt]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(config) in err and "JSON object" in err, err
    assert not out and not (tmp_path / "r").exists()


_PLACE = {"label": "v7", "q": 7, "s": "(1 2 3)"}

_LONG = "x" * 5000

# (command, file contents): each quotes a value of 5,000 characters or
# more, or 2,000 unknown keys
LONG_VALUES = {
    "int": ("suite", {"primes": [_LONG]}),
    "list": ("suite", {"primes": _LONG}),
    "group-name": ("suite", {"groups": [_LONG]}),
    "group-entry": ("suite", {"groups": [[_LONG]]}),
    "crux-entry": ("suite", {"crux": [[_LONG]]}),
    "format": ("suite", {"format": _LONG}),
    "config-key": ("suite", {_LONG: 1}),
    "config-keys": ("suite", {f"key{i}": 1 for i in range(2000)}),
    "not-an-object": ("suite", [_LONG]),
    "places-group": ("places", {"group": _LONG, "places": [_PLACE]}),
    "places": ("places", {"group": "S3", "places": _LONG}),
    "places-entry": ("places", {"group": "S3", "places": [_LONG]}),
    "no-field": ("places", {"group": "S3", "places": [{"label": _LONG}]}),
    "label": ("places", {"group": "S3",
                         "places": [{**_PLACE, "label": [_LONG]}]}),
    "q": ("places", {"group": "S3", "places": [{**_PLACE, "q": _LONG}]}),
    "s": ("places", {"group": "S3", "places": [{**_PLACE, "s": _LONG}]}),
    "places-keys": ("places", {"group": "S3", "places": [_PLACE],
                               **{f"key{i}": 1 for i in range(2000)}}),
}


@pytest.mark.parametrize("command, data", LONG_VALUES.values(),
                         ids=LONG_VALUES)
def test_long_config_and_places_values_are_cut(command, data, tmp_path,
                                               capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = (["suite", "--config", str(path)] if command == "suite"
            else ["ledger", "demo", "--places", str(path)])
    assert main([*argv, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode()) <= 200, err[:300]
    assert "..." in err or "1999 more" in err, err
    assert not out and not (tmp_path / "r").exists()


MALFORMED_PLACES = [
    ({"places": []}, "group"),
    ([_PLACE], "group"),
    ({"group": 3, "places": [_PLACE]}, "group"),
    ({"group": "S3", "places": []}, "places"),
    ({"group": "S3"}, "places"),
    ({"group": "S3", "places": ["v7"]}, "places"),
    ({"group": "S3", "places": [{"q": 7, "s": "()"}]}, "label"),
    ({"group": "S3", "places": [{**_PLACE, "label": 7}]}, "label"),
    ({"group": "S3", "places": [{"label": "v7", "s": "()"}]}, "q"),
    ({"group": "S3", "places": [{**_PLACE, "q": "x"}]}, "q"),
    ({"group": "S3", "places": [{"label": "v7", "q": 7}]}, "s"),
    ({"group": "S3", "places": [{**_PLACE, "s": "(1 2)"}]}, "s"),
    ({"group": "S3", "places": [{**_PLACE, "q": 6}]}, "q"),
    ({"group": "S3", "places": [{**_PLACE, "q": 3}]}, "q"),
    ({"group": "S3", "places": [_PLACE, {**_PLACE, "q": 13}]}, "label"),
    ({"group": "S3", "places": [{**_PLACE, "q": 2 ** 61 - 1}]}, "q"),
    ({"group": "S3", "places": [_PLACE], "extra": 1}, "extra"),
    ({"group": "S3", "places": [{**_PLACE, "t": "(1 2)"}]}, "t"),
]


@pytest.mark.parametrize("data, field", MALFORMED_PLACES)
def test_ledger_demo_malformed_places_exits_two(data, field, tmp_path, capsys):
    places = tmp_path / "places.json"
    places.write_text(json.dumps(data))
    assert main(["ledger", "demo", "--places", str(places),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(rf"\b{field}\b", err), err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("content", [b"{not json", b'{"group": "\xff"}'])
def test_ledger_demo_unreadable_places_exits_two(content, tmp_path, capsys):
    places = tmp_path / "places.json"
    places.write_bytes(content)
    assert main(["ledger", "demo", "--places", str(places),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "places file" in err, err
    assert not (tmp_path / "r").exists()


def test_usage_errors_exit_before_any_computation(monkeypatch, tmp_path,
                                                   capsys):
    # every usage error is found before a table is built or a verifier runs
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before the inputs were checked")

    for target in ("characters.CharTable.of", "characters.CharTable._dixon",
                   "localmodel.verify_factorization",
                   "localmodel.verify_kummer_generator", "ledger.crux_check",
                   "gaussjacobi.verify_gauss_identities",
                   "stickelberger.pairing_table"):
        monkeypatch.setattr(f"tamekit.{target}", forbidden)
    out = str(tmp_path / "r")
    runs = [[*argv, "--out", out] for argv in USAGE_ERRORS]
    for i, data in enumerate(MALFORMED_CONFIGS):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(data))
        runs.append(["suite", "--config", str(path), "--out", out])
    for i, (data, _) in enumerate(MALFORMED_PLACES):
        path = tmp_path / f"places{i}.json"
        path.write_text(json.dumps(data))
        runs.append(["ledger", "demo", "--places", str(path), "--out", out])
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r").exists()


def test_usage_message_is_the_library_message(tmp_path, capsys):
    # one case per input rule: the CLI prefixes where the input came from
    # to the text of the ValueError the library raises for the same input
    S3, F21 = preset("S3"), preset("F21")
    s3 = S3.names.index("(1 2 3)")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [9]}))
    big_e = tmp_path / "big_e.json"
    big_e.write_text(json.dumps({"e_values": [361]}))
    places = tmp_path / "places.json"
    places.write_text(json.dumps({"group": "S3",
                                  "places": [{**_PLACE, "q": 6}]}))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"group": "S3",
                                 "places": [_PLACE, {**_PLACE, "q": 13}]}))
    cases = [
        (["gauss", "--p", "9"], "gauss", lambda: verify_gauss_identities(9)),
        (["gauss", "--p", "7", "--order", "4"], "gauss",
         lambda: MultChar(7, 4, 1)),
        (["suite", "--config", str(config), "--out", str(tmp_path / "r")],
         "primes", lambda: verify_gauss_identities(9)),
        (["crux", "--p", "11", "--e", "4"], "crux pair (11, 4)",
         lambda: crux_check(11, 4)),
        (["localmodel", "verify", "--group", "F21", "--s", "2", "--t", "1"],
         "localmodel verify", lambda: verify_factorization(F21, 2, t=1)),
        (["ledger", "demo", "--places", str(places)], "ledger demo",
         lambda: build_f(S3, [("v7", 6, s3)])),
        (["ledger", "demo", "--places", str(twice)], "ledger demo",
         lambda: build_f(S3, [("v7", 7, s3), ("v7", 13, s3)])),
        (["localmodel", "verify", "--group", "S3", "--s", "(1 2 3)",
          "--n", "3"], "localmodel verify",
         lambda: verify_kummer_generator(3, 3)),
        (["pairing", "--group", "S3", "--s", "(1 2)", "--star"], "pairing",
         lambda: pairing_table(S3, S3.names.index("(1 2)"), star=True)),
        (["suite", "--config", str(big_e), "--out", str(tmp_path / "r")],
         "e_values", lambda: verify_kummer_generator(361, 0)),
    ]
    for argv, where, library in cases:
        with pytest.raises(ValueError) as info:
            library()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {where}: {info.value}\n"
    # both elements are named when t does not normalize <s>
    with pytest.raises(ValueError, match=re.escape(
            "t = (1 2 3 4 5 6 7) does not normalize <(2 3 5)(4 7 6)>")):
        verify_factorization(F21, 2, t=1)


def test_internal_fault_exits_three(monkeypatch, capsys):
    # A ValueError from inside a computation is a fault, not a usage error.
    def broken(p):
        raise ValueError("internal\nfault")

    monkeypatch.setattr("tamekit.gaussjacobi.verify_gauss_identities", broken)
    assert main(["gauss", "--p", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == "error: ValueError: internal fault\n", err
    assert not out


REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(REPORT_VALUES)
def test_dump_matches_the_stdlib_encoder(value):
    assert cli._dump(value) == json.dumps(value, sort_keys=True,
                                          indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": 0.0}, {1: 2}, {None: 1},
                                   [(1, 2)], {"a": {"b": set()}}])
def test_dump_rejects_what_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._dump(value)


def test_every_command_dumps_like_the_stdlib_encoder(monkeypatch, tmp_path,
                                                     capsys):
    # every report a command writes, as the object it dumps
    dumped = []
    dump = cli._dump

    def recorded(report):
        dumped.append(report)
        return dump(report)

    monkeypatch.setattr(cli, "_dump", recorded)
    f21 = ["--group", "F21", "--s", "(1 2 3 4 5 6 7)"]
    commands = [["chartab", "--group", "S3"], ["chartab", "--group", "C9"],
                ["pairing"] + f21, ["pairing", "--star"] + f21,
                ["localmodel", "verify"] + f21, ["gauss", "--p", "7"],
                ["crux", "--p", "7", "--e", "3"], ["ledger", "demo"],
                ["suite", "--out", str(tmp_path)]]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len(dumped) == 8 + 43  # the suite writes 43 files, summary too
    for report in dumped:
        assert dump(report) == json.dumps(report, sort_keys=True,
                                          indent=2) + "\n"
