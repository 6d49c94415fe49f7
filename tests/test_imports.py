"""The runtime needs numpy alone, and loads it only on first use.

Importing the package and every one of its modules in a fresh
interpreter must load none of the scientific libraries that tests and
studies may use on the side: the shipped code runs where only numpy is
installed, and what it imports is paid for at every start.

numpy itself is bound lazily: importing cfdyn leaves only the lazy
`numpy` module object in `sys.modules`, and no `numpy.*` submodule, so
no module may call numpy at import time.  The exact subcommands never
load it; the float ones load it on their first numpy call.  The
constants that moved off import keep their values and bits.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from cfdyn import verify
from cfdyn.series import power_tail

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfdyn"
GOLDEN_CSV = Path(__file__).resolve().parent / "golden" / "heatmap_n16_k1.csv"
BANNED = ("scipy", "mpmath", "matplotlib", "pandas")

PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted({{m.split(".")[0] for m in sys.modules}} & set({BANNED!r})))
"""

# Runs `body`, then prints a JSON list of the numpy submodules loaded
NUMPY_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))))
"""

# Each exact subcommand, run one after another in one interpreter
EXACT_COMMANDS = [["cf", "--x", "3/7"], ["map-eval", "--alpha", "0", "--x", "2/5"],
                  ["orbit", "--alpha", "(1)", "--x", "5/13", "--iter", "6"],
                  ["jimm", "--x", "3/7"], ["qmark", "--x", "3/7"]]


def modules() -> list:
    names = ["cfdyn"] + [f"cfdyn.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                         if p.stem not in ("__init__", "__main__")]
    assert len(names) >= 9
    return names


def run_fresh(code: str, *args: str) -> str:
    """stdout of `code` run in a fresh interpreter on the package."""
    done = subprocess.run([sys.executable, "-c", code, *args],
                          cwd=PACKAGE.parent, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_modules_import_without_optional_libraries():
    out = run_fresh(PROBE.format(BANNED=BANNED), *modules())
    assert out.strip() == "[]"


def test_importing_runs_no_numpy():
    body = ("import importlib\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)")
    out = run_fresh(NUMPY_PROBE.format(body=body), *modules())
    assert json.loads(out) == []


def test_exact_subcommands_never_load_numpy(tmp_path):
    body = ("from cfdyn import cli\n"
            f"for argv in {EXACT_COMMANDS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('numpy.'))))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['heatmap', '--grid', '16', '--iter', '1',\n"
            "                     '--out', sys.argv[1]]) == 0")
    out = run_fresh(NUMPY_PROBE.format(body=body), str(tmp_path / "h.pgm"))
    exact, heatmap = (json.loads(line) for line in out.splitlines()[-2:])
    assert exact == []
    # the float side loads numpy on its first call, and gives the same bytes
    assert "numpy._core" in heatmap
    written = hashlib.sha256((tmp_path / "h.csv").read_bytes()).hexdigest()
    assert written == hashlib.sha256(GOLDEN_CSV.read_bytes()).hexdigest()


def test_verify_eps_is_numpy_epsilon():
    assert verify.EPS == np.finfo(float).eps
    assert type(verify.EPS) is float


# power_tail's first call in an interpreter builds its tables
POWER_TAIL_PROBE = """
import json
from cfdyn.series import power_tail
import numpy as np
args = {{"scalar": (2.0, 0.5, 1.5, 3),
         "array": (np.array([1.0, 2.0, 3.0]), 0.5, np.array([1.0, 1.5, 4.0]), 2)}}
first = {first!r}
calls = [first, *args, first]
print(json.dumps([[v.hex() for v in np.ravel(power_tail(*args[k]))]
                  for k in calls]))
"""


def test_power_tail_first_call_has_the_bits_of_later_calls():
    args = {"scalar": (2.0, 0.5, 1.5, 3),
            "array": (np.array([1.0, 2.0, 3.0]), 0.5, np.array([1.0, 1.5, 4.0]), 2)}
    here = {k: [v.hex() for v in np.ravel(power_tail(*a))] for k, a in args.items()}
    for first in args:
        got = json.loads(run_fresh(POWER_TAIL_PROBE.format(first=first)))
        assert got == [here[first], here["scalar"], here["array"], here[first]]
