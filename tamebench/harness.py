"""Workloads, child-process runs and the output gate shared by the benchmark.

Every workload launches fresh ``python -m tamekit.cli`` processes against
``src/`` of the checkout, so each run pays for table construction and the
cyclotomic reduction caches from cold, as a user's invocation does.
Reports go to a throwaway directory under ``.tamebench/`` in the checkout.

The gate turns one workload iteration into a list of named checks:

- ``exit``: every command exited 0;
- ``file-set``: the report directory holds exactly the expected files;
- ``report:<file>``: the file's sha256 equals the digest in
  ``expected.json`` and its verdict (and its ``summary.json`` entry) is
  pass;
- ``known:<file>``: an answer that does not come from tamekit: the number
  of Jacobi pairs (p-2)(p-3), phi(e) crux candidates, and n classes of
  degree 1 for a cyclic group of order n.

A non-zero exit fails every check of the iteration.  ``expected.json``
holds the sha256 of each report written by the commit that introduced the
benchmark; reports are byte-stable, so a digest mismatch is a change of
output, not noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".tamebench"

# Arguments after ``python -m tamekit.cli``; ``--out`` is appended per run.
COMMANDS = {
    "suite": [["suite"]],
    "chartab": [["chartab", "--group", "C27"], ["chartab", "--group", "C32"]],
}
WORKLOADS = tuple(COMMANDS)


def program_present() -> bool:
    return (SRC / "tamekit" / "cli.py").is_file()


def child_env() -> dict:
    # Unbuffered stdout lets the parent time each report by its PASS line.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1",
                PYTHONHASHSEED="0")


def scratch_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------ child runs

def time_import() -> float:
    """Seconds from launching an interpreter to its exit after it has
    imported ``tamekit.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tamekit.cli"],
                   env=child_env(), check=True)
    return time.perf_counter() - t0


def run_iteration(workload: str, out_dir: Path) -> dict:
    """Run the workload's commands once, in fresh processes, writing its
    reports into ``out_dir``.

    Returns wall seconds (launch to exit, summed over commands), peak RSS
    in MiB (max over commands), child CPU seconds, the exit codes, and
    seconds per report taken between successive ``PASS``/``FAIL`` lines.
    """
    wall = cpu = 0.0
    rss_kib = 0
    codes = []
    report_s = {}
    for args in COMMANDS[workload]:
        argv = [sys.executable, "-m", "tamekit.cli", *args,
                "--out", str(out_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        last = t0
        with proc.stdout:
            for line in proc.stdout:
                now = time.perf_counter()
                verdict, _, name = line.strip().partition(" ")
                if verdict in ("PASS", "FAIL"):
                    report_s[name] = now - last
                last = now
        _, status, usage = os.wait4(proc.pid, 0)
        wall += time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        cpu += usage.ru_utime + usage.ru_stime
        rss_kib = max(rss_kib, usage.ru_maxrss)
    return {"wall_s": wall, "peak_rss_mib": rss_kib / 1024, "cpu_s": cpu,
            "exit_codes": codes, "report_s": report_s}


# ------------------------------------------------------------------ gate

def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _totient(n: int) -> int:
    return sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _verdict(data) -> bool:
    if not isinstance(data, dict):
        return False
    if "pass" in data:
        return data["pass"] is True
    cert = data.get("certification")
    return isinstance(cert, dict) and cert.get("pass") is True


def _known_answer(name: str, data) -> bool | None:
    """An independent answer for reports that have one, else None."""
    m = re.fullmatch(r"gauss-p(\d+)\.json", name)
    if m:
        p = int(m.group(1))
        try:
            return data["identities"]["jacobi_pairs"] == (p - 2) * (p - 3)
        except (KeyError, TypeError):
            return False
    m = re.fullmatch(r"crux-p\d+-e(\d+)\.json", name)
    if m:
        try:
            return len(data["candidates"]) == _totient(int(m.group(1)))
        except (KeyError, TypeError):
            return False
    m = re.fullmatch(r"chartab-C(\d+)\.json", name)
    if m:
        n = int(m.group(1))
        try:
            table = data.get("table", data)
            classes = table.get("classes", len(table.get("class_sizes", ())))
            return (table["order"] == n and classes == n
                    and table["degrees"] == [1] * n)
        except (KeyError, TypeError, AttributeError):
            return False
    return None


def gate(workload: str, out_dir: Path, exit_codes: list[int],
         expected: dict) -> list[tuple[str, bool]]:
    """Named pass/fail checks for one iteration's report directory."""
    digests = expected[workload]
    exit_ok = bool(exit_codes) and all(c == 0 for c in exit_codes)
    present = sorted(p.name for p in out_dir.iterdir()) \
        if out_dir.is_dir() else []
    checks = [("exit", exit_ok), ("file-set", present == sorted(digests))]

    summary = _read_json(out_dir / "summary.json") \
        if "summary.json" in digests else None
    listed = {}
    if isinstance(summary, dict):
        for entry in summary.get("checks", []):
            listed[f"{entry.get('check')}.json"] = entry.get("pass") is True
    for name, digest in sorted(digests.items()):
        path = out_dir / name
        data = _read_json(path)
        ok = path.is_file() and sha256(path) == digest and _verdict(data)
        if summary is not None and name != "summary.json":
            ok = ok and listed.get(name, False)
        checks.append((f"report:{name}", ok))
        known = _known_answer(name, data)
        if known is not None:
            checks.append((f"known:{name}", known))
    if not exit_ok:
        checks = [(label, False) for label, _ in checks]
    return checks


def run_checked(workload: str, expected: dict) -> tuple[dict, list]:
    """One iteration in a throwaway directory, gated, then cleaned up."""
    out_dir = scratch_dir()
    try:
        result = run_iteration(workload, out_dir)
        checks = gate(workload, out_dir, result["exit_codes"], expected)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result, checks
