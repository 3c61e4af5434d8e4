"""tamekit benchmark: fresh-process CLI workloads with an exact-output gate.

Run from the root of a checkout (no install needed; it sets PYTHONPATH to
``src``):

    python3 tamebench/run.py --workload suite --seed 1 --seconds 60 --trace 0

Workloads (see ``harness.COMMANDS``):

- ``suite``: ``tamekit suite`` on the default config, the north-star path.
  Mostly small-conductor arithmetic through restrict/from_values and the
  resolvend determinants, plus the gauss-p31 sweep.
- ``chartab``: ``tamekit chartab`` for C27 then C32.  Dixon's modular step
  and certification at medium conductors; no pairing path, no lambda-adic
  code.

``--trace 0`` repeats the workload, each iteration in fresh processes,
until the next one would not finish within ``--seconds``, sampling the
import time before each iteration; meanwhile ``reference.py``, a fixed
pure-Python loop, runs back to back on the other core.  It reports
medians: ``wall_s`` and ``setup_s``, both rescaled to the nominal speed
of the reference (seconds x REF_S / median reference time of the run),
and ``peak_rss_mib``; and ``check_pass_share``.  The raw times are in
the line before the result.

``--trace 1`` runs one untraced iteration (child CPU time, seconds per
report, the untraced wall time) next to ``trace_pass.py`` in a fresh
interpreter, and reports the per-layer metrics.  The seed draws the
kernel-probe operands; the CLI workloads are fixed exact inputs.

Every iteration's reports go through ``harness.gate``.  The last line of
stdout is the result object; the line before it records the seed and the
raw samples.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import harness
from harness import median

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "check_pass_share": "ratio",
}

# Reports whose untraced seconds are listed per layer (cli.report_s.*).
REPORTS = ("identities-C7", "identities-C9", "identities-F21",
           "factorization-C7", "factorization-C9", "factorization-F21",
           "kummer-e9", "gauss-p31")

# per-layer name -> (unit, function of the traced stats)
_S = "s"
_N = "count"


def _calls(key):
    return lambda st: st[key]["calls"]


def _self(*keys):
    return lambda st: sum(st[k]["self_s"] for k in keys)


def _incl(key):
    return lambda st: st[key]["incl_s"]


def _ratio(num, den):
    return lambda st: st[num]["calls"] / st[den]["calls"] \
        if st[den]["calls"] else 0.0


TRACED = {
    "cyclotomic.mul_calls": (_N, _calls("cyclotomic.mul")),
    "cyclotomic.mul_self_s": (_S, _self("cyclotomic.mul")),
    "cyclotomic.canon_calls": (_N, _calls("cyclotomic.canon")),
    "cyclotomic.canon_self_s": (_S, _self("cyclotomic.canon")),
    "cyclotomic.add_self_s": (_S, _self("cyclotomic.add")),
    "characters.dixon_self_s": (_S, _self("characters.dixon",
                                          "characters.build")),
    "characters.certify_s": (_S, _incl("characters.certify")),
    "characters.certify_calls": (_N, _calls("characters.certify")),
    "characters.certify_per_table": (
        "ratio", _ratio("characters.certify", "characters.build")),
    "characters.restrict_calls": (_N, _calls("characters.restrict")),
    "characters.restrict_s": (_S, _incl("characters.restrict")),
    "characters.from_values_calls": (_N, _calls("characters.from_values")),
    "characters.from_values_s": (_S, _incl("characters.from_values")),
    "characters.induce_s": (_S, _incl("characters.induce")),
    "characters.inner_s": (_S, _incl("characters.inner")),
    "stickelberger.pairing_calls": (_N, _calls("stickelberger.pairing")),
    "stickelberger.identities_s": (_S, _incl("stickelberger.identities")),
    "localmodel.det_resolvend_calls": (_N, _calls("localmodel.det_resolvend")),
    "localmodel.det_resolvend_s": (_S, _incl("localmodel.det_resolvend")),
    "localmodel.factorization_s": (_S, _incl("localmodel.factorization")),
    "localmodel.kummer_s": (_S, _incl("localmodel.kummer")),
    "padic.valuation_calls": (_N, _calls("padic.valuation")),
    "padic.embed_calls": (_N, _calls("padic.embed")),
    "padic.embeds_per_valuation": ("ratio", _ratio("padic.embed",
                                                   "padic.valuation")),
    "padic.embed_s": (_S, _incl("padic.embed")),
    "padic.mul_calls": (_N, _calls("padic.mul")),
    "gaussjacobi.identities_s": (_S, _incl("gaussjacobi.identities")),
    "gaussjacobi.jstar_s": (_S, _incl("gaussjacobi.jstar")),
    "gaussjacobi.j_star_calls": (_N, _calls("gaussjacobi.j_star")),
    "ledger.crux_s": (_S, _incl("ledger.crux")),
    "groups.s": (_S, _incl("groups")),
}

PROBES = {
    "cyclotomic.mul_us.n9": "us",
    "cyclotomic.mul_us.n63": "us",
    "cyclotomic.mul_us.n930": "us",
    "padic.embed_us.p79": "us",
}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in TRACED.items()}
    units.update(PROBES)
    units["cli.cpu_s"] = "s"
    units.update({f"cli.report_s.{r}": "s" for r in REPORTS})
    units["trace.overhead_share"] = "ratio"
    return units


# ------------------------------------------------------------------ modes

# The run keeps both cores busy with the same mix from start to end: one
# lane runs the workload's iterations back to back, the other runs
# reference.py back to back.  The two cores share caches, so what runs on
# the other core changes an iteration's time; a fixed neighbour removes
# that variation, and the reference samples cover the whole run instead of
# the gaps between iterations.  Import-time samples (setup_s) are taken in
# the workload lane, a few before each iteration and then until the run
# ends.
SETUP_SAMPLES = 3

# reference.py units per sample, and a nominal time for them, about the
# median sample seen on the 2.0 GHz Xeon of notes.json next to a running
# workload.  Both timed metrics are rescaled by REF_S / (median reference
# sample of the run), which divides out the drift in machine speed
# between runs.
REF_UNITS = 1000
REF_S = 1.5


def time_reference() -> float:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "reference.py"),
         str(REF_UNITS)], stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def _workload_lane(workload: str, seconds: float, start: float,
                   expected: dict):
    """Untraced iterations until the next would overrun ``seconds``, then
    import-time samples until it ends."""
    setup, iterations, blocks, checks = [], [], [], []
    while True:
        block = time.perf_counter()
        setup += [harness.time_import() for _ in range(SETUP_SAMPLES)]
        result, gate = harness.run_checked(workload, expected)
        iterations.append(result)
        checks += gate
        blocks.append(time.perf_counter() - block)
        if time.perf_counter() - start + median(blocks) > seconds:
            break
    while time.perf_counter() - start + median(setup) < seconds:
        setup.append(harness.time_import())
    return setup, iterations, checks


def _reference_lane(seconds: float, start: float) -> list[float]:
    refs = [time_reference()]
    while time.perf_counter() - start + median(refs) < seconds:
        refs.append(time_reference())
    return refs


def measure(workload: str, seconds: float, expected: dict):
    start = time.perf_counter()
    harness.time_import()              # compiles bytecode; not a sample
    with ThreadPoolExecutor(2) as pool:
        work = pool.submit(_workload_lane, workload, seconds, start, expected)
        refs = pool.submit(_reference_lane, seconds, start).result()
        setup, iterations, checks = work.result()
    scale = REF_S / median(refs)
    walls = [r["wall_s"] for r in iterations]
    failed = sum(not ok for _, ok in checks)
    metrics = {
        "wall_s": median(walls) * scale,
        "setup_s": median(setup) * scale,
        "peak_rss_mib": median([r["peak_rss_mib"] for r in iterations]),
        "check_pass_share": 1 - failed / len(checks),
    }
    samples = {
        "raw_wall_s": walls,
        "raw_setup_s": setup,
        "reference_s": refs,
        "scale": scale,
        "peak_rss_mib": [r["peak_rss_mib"] for r in iterations],
    }
    return metrics, checks, samples


def _traced_pass(workload: str, seed: int, expected: dict):
    """``trace_pass.py`` in a fresh interpreter; its parsed output (None if
    it failed) and the gate of the reports it wrote."""
    out_dir = harness.scratch_dir()
    try:
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "trace_pass.py"),
             "--workload", workload, "--seed", str(seed),
             "--out", str(out_dir)],
            env=harness.child_env(), cwd=harness.ROOT,
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        traced = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
        codes = traced["exit_codes"] if traced else [proc.returncode or 1]
        return traced, harness.gate(workload, out_dir, codes, expected)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def trace(workload: str, seed: int, expected: dict):
    """One untraced iteration next to the traced pass and kernel probes."""
    with ThreadPoolExecutor(2) as pool:
        plain_run = pool.submit(harness.run_checked, workload, expected)
        traced_run = pool.submit(_traced_pass, workload, seed, expected)
        untraced, checks = plain_run.result()
        traced, traced_checks = traced_run.result()
    checks += traced_checks
    if traced is None:
        return None, checks, {}
    checks += [tuple(c) for c in traced["probes"]["checks"]]
    unbound = sorted(t for t, n in traced["bindings"].items() if not n)
    if unbound:
        print(f"warning: trace targets not found: {unbound}", file=sys.stderr)

    stats = traced["stats"]
    metrics = {name: fn(stats) for name, (_, fn) in TRACED.items()}
    metrics.update(traced["probes"]["metrics"])
    metrics["cli.cpu_s"] = untraced["cpu_s"]
    for r in REPORTS:
        metrics[f"cli.report_s.{r}"] = untraced["report_s"].get(r, 0.0)
    metrics["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1
    samples = {"untraced_wall_s": untraced["wall_s"],
               "traced_wall_s": traced["wall_s"],
               "calls": traced["calls"],
               "bindings": traced["bindings"]}
    return metrics, checks, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tamekit benchmark")
    ap.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not harness.program_present():
        print(f"error: {harness.SRC / 'tamekit'} not found; run from the "
              "root of a tamekit checkout", file=sys.stderr)
        return 2
    expected = harness.load_expected()
    if args.trace:
        metrics, checks, samples = trace(args.workload, args.seed, expected)
        units = per_layer_units()
        if metrics is None:
            metrics = {name: 0.0 for name in units}
    else:
        metrics, checks, samples = measure(args.workload, args.seconds,
                                           expected)
        units = END_TO_END
    failed = [label for label, ok in checks if not ok]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "failed_checks": failed,
                      "samples": samples}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
