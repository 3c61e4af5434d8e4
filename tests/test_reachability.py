"""Every function under src/tamekit is entered by some command.

One fresh interpreter runs a short list of CLI commands under a
`sys.setprofile` hook and reports the code objects it entered, by file,
first line and name, so no cache warmed by an earlier test can hide a
function.  `ast` keys each `def` the same way (a decorated def's code
starts at its first decorator).  A def that no command enters fails the test unless
ALLOWED names it with its reason; an ALLOWED def that a command enters, or
that is gone, fails it too, so the list stays exact.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tamekit

PACKAGE = Path(tamekit.__file__).resolve().parent

ALLOWED = {}

F21_S = "(1 2 3 4 5 6 7)"

# Runs the commands given as JSON in argv[1] under the hook and prints
# the entered code objects under the package, then each exit status.
_CHILD = """
import contextlib, io, json, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
import tamekit
from tamekit.cli import main
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            exits.append(main(argv))
        except SystemExit as ex:
            exits.append(ex.code)
sys.setprofile(None)
root = tamekit.__file__.rsplit("__init__.py", 1)[0]
print(json.dumps({
    "entered": sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                       for c in entered if c.co_filename.startswith(root)}),
    "exits": exits}))
"""


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, exit status) pairs that between them enter every def that
    CI's console-script commands enter."""
    places = tmp / "f21-places.json"
    places.write_text(json.dumps({"group": "F21", "places": [
        {"label": "v29", "q": 29, "s": F21_S},
        {"label": "v8", "q": 8, "s": 2}]}))
    unknown = tmp / "unknown-key.json"
    unknown.write_text(json.dumps({"group": "S3", "places": [
        {"label": "v7", "q": 7, "s": "(1 2 3)", "t": "(1 2)"}]}))
    e361 = tmp / "e361.json"
    e361.write_text(json.dumps({"e_values": [361]}))
    return [
        (["chartab", "--group", "F21"], 0),
        (["chartab", "--group", "C9", "--format", "csv"], 0),
        (["suite", "--out", str(tmp / "reports")], 0),
        (["suite", "--format", "csv", "--out", str(tmp / "reports-csv")], 0),
        (["crux", "--p", "11", "--e", "5"], 0),
        (["localmodel", "verify", "--group", "F21", "--s", F21_S,
          "--n", "3"], 0),
        (["localmodel", "verify", "--group", "C9", "--s", "1", "--n", "-4",
          "--q", "1000099"], 0),
        (["pairing", "--group", "F21", "--s", F21_S], 0),
        (["pairing", "--group", "C9", "--s", "1", "--star",
          "--format", "csv"], 0),
        (["gauss", "--p", "7"], 0),
        (["gauss", "--p", "13", "--order", "3"], 0),
        (["ledger", "demo"], 0),
        (["ledger", "demo", "--places", str(places)], 0),
        (["ledger", "demo", "--places", str(unknown)], 2),
        (["crux", "--p", "11", "--e", "4"], 2),
        (["gauss", "--p", "7", "--order", "4"], 2),
        (["localmodel", "verify", "--group", "C9", "--s", "1", "--q", "64",
          "--n", "1"], 2),
        (["pairing", "--group", "S3", "--s", "(1 2)", "--star"], 2),
        (["suite", "--config", str(e361), "--out", str(tmp / "e361")], 2),
    ]


def library_defs() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> "module.py:qualified.name" for
    every def under the package."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    defs[path.name, first, child.name] = \
                        f"{path.name}:{name}"
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(), str(path)), "")
    return defs


def entered(argvs: list[list[str]], cwd: Path) -> tuple[set[str], list]:
    """The defs that the commands enter in one fresh interpreter, and
    their exit statuses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                         env=env, cwd=cwd, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.splitlines()[-1])
    defs = library_defs()
    keys = {(Path(f).name, line, name) for f, line, name in result["entered"]}
    names = {defs[key] for key in keys & defs.keys()}
    return names, result["exits"]


def test_every_library_def_is_entered_by_a_command(tmp_path):
    runs = commands(tmp_path)
    names, exits = entered([argv for argv, _ in runs], tmp_path)
    assert exits == [status for _, status in runs]
    defs = set(library_defs().values())
    unreached = sorted(defs - names - set(ALLOWED))
    assert not unreached, f"no command enters {unreached}"
    gone = sorted(set(ALLOWED) - defs)
    assert not gone, f"allow-listed defs are gone: {gone}"
    entered_too = sorted(set(ALLOWED) & names)
    assert not entered_too, f"a command enters allow-listed {entered_too}"
