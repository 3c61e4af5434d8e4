"""Command-line behavior: exit codes, report files, determinism."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tamekit
import tamekit.gaussjacobi as gaussjacobi
from tamekit.cli import DEFAULT_CONFIG, SuiteConfig, UsageError, main

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


def test_pairing_csv(capsys):
    assert main(["pairing", "--group", "C3", "--s", "1", "--format",
                 "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["chi", "degree", "value"]
    assert len(rows) == 4


def test_usage_errors_exit_two(capsys):
    cases = [
        ["pairing", "--group", "NOPE", "--s", "0"],
        ["pairing", "--group", "S3", "--s", "17"],
        ["pairing", "--group", "S3", "--s", "(1 2)", "--star"],
        ["crux", "--p", "11", "--e", "4"],
        ["crux", "--p", "12", "--e", "3"],
        ["crux", "--p", "103", "--e", "3"],
        ["gauss", "--p", "9"],
        ["gauss", "--p", "7", "--order", "4"],
        ["gauss", "--p", "103"],
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
        # without --q, q = 2 is inferred from t, and --n needs q = 1 mod 7
        ["localmodel", "verify", "--group", "F21", "--s", "(1 2 3 4 5 6 7)",
         "--t", "(2 3 5)(4 7 6)", "--n", "3"],
        # element text that is not a permutation, or too large to be one
        ["pairing", "--group", "S3", "--s", "(1 2)(1 3)"],
        ["pairing", "--group", "S3", "--s", "(1 1000000000)"],
    ]
    for argv in cases:
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
    with pytest.raises(UsageError, match="precision"):
        SuiteConfig({"precision": 8})  # an unknown key
    assert SuiteConfig({"primes": ["5"], "crux": [["7", 3]]}).crux == [(7, 3)]
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


@pytest.mark.parametrize("data", [
    {"primes": 5},
    {"groups": "S3"},
    {"groups": [5]},
    {"e_values": [3.5]},
    {"e_values": [True]},
    {"crux": [[7, 3, 1]]},
    {"crux": [7]},
    {"crux": [[7, "x"]]},
    {"precision": 2.5},
])
def test_suite_malformed_config_exits_two(data, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    [field] = data
    assert field in err, err
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


@pytest.mark.parametrize("data, field", [
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
])
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


def test_internal_fault_exits_three(monkeypatch, capsys):
    # A ValueError from inside a computation is a fault, not a usage error.
    def broken(p):
        raise ValueError("internal\nfault")

    monkeypatch.setattr("tamekit.gaussjacobi.verify_gauss_identities", broken)
    assert main(["gauss", "--p", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == "error: ValueError: internal fault\n", err
    assert not out
