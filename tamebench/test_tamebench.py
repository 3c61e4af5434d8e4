"""Self-tests for the benchmark.  From the repository root:

    python3 -m pytest tamebench -q

They launch every workload once, untraced and traced, with ``--seconds 1``
(one iteration each), so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import trace_pass


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=harness.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def _spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in harness.WORKLOADS}


@pytest.fixture(scope="module")
def suite_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    result = harness.run_iteration("suite", out)
    assert result["exit_codes"] == [0]
    return out


def _failed(out_dir, expected, codes=(0,)):
    return [label for label, ok in
            harness.gate("suite", out_dir, list(codes), expected) if not ok]


def test_metric_names_match_spec():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_untraced_run_prints_end_to_end_metrics():
    info, result = _run("chartab", 0)
    assert result["correct"] and result["failed"] == 0, info
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_per_layer_metrics(traced):
    for workload, (info, result) in traced.items():
        assert result["correct"], (workload, info["failed_checks"])
        assert list(result["metrics"]) == list(run.per_layer_units())


def test_every_target_is_bound_and_called(traced):
    for module, target, _, _, workloads in trace_pass.TARGETS:
        label = f"{module}.{target}"
        for workload in workloads:
            info, _ = traced[workload]
            assert info["samples"]["bindings"][label] >= 1, label
            assert info["samples"]["calls"][label] > 0, (label, workload)


def test_traced_counts_repeat(traced):
    info, _ = _run("chartab", 1)
    assert info["samples"]["calls"] == traced["chartab"][0]["samples"]["calls"]


def test_gate_passes_committed_output(suite_reports):
    assert _failed(suite_reports, harness.load_expected()) == []


def test_gate_counts_one_altered_byte(suite_reports, tmp_path):
    copy = shutil.copytree(suite_reports, tmp_path / "reports")
    path = copy / "crux-p31-e5.json"
    data = bytearray(path.read_bytes())
    data[data.index(b" ")] = ord("\t")      # still valid JSON
    path.write_bytes(bytes(data))
    assert _failed(copy, harness.load_expected()) \
        == ["report:crux-p31-e5.json"]


def test_gate_counts_flipped_verdict(suite_reports, tmp_path):
    # Re-digest the flipped file so that only the verdict can catch it.
    expected = harness.load_expected()
    copy = shutil.copytree(suite_reports, tmp_path / "reports")
    path = copy / "summary.json"
    summary = json.loads(path.read_text())
    summary["checks"][0]["pass"] = False
    path.write_text(json.dumps(summary))
    expected["suite"]["summary.json"] = harness.sha256(path)
    name = summary["checks"][0]["check"]
    assert _failed(copy, expected) == [f"report:{name}.json"]


def test_gate_fails_every_check_on_nonzero_exit(suite_reports):
    expected = harness.load_expected()
    checks = harness.gate("suite", suite_reports, [1], expected)
    assert checks and not any(ok for _, ok in checks)


def test_known_answers():
    assert harness._known_answer(
        "gauss-p31.json", {"identities": {"jacobi_pairs": 812}})
    assert harness._known_answer("crux-p61-e15.json",
                                 {"candidates": list(range(8))})
    assert not harness._known_answer("crux-p79-e13.json",
                                     {"candidates": list(range(8))})
    assert harness._known_answer(
        "chartab-C3.json", {"order": 3, "classes": 3, "degrees": [1, 1, 1]})
