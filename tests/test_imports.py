"""The runtime needs numpy alone.

Importing the package and every one of its modules in a fresh
interpreter must load none of the scientific libraries that tests and
studies may use on the side: the shipped code runs where only numpy is
installed, and what it imports is paid for at every start.
"""

import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfdyn"
BANNED = ("scipy", "mpmath", "matplotlib", "pandas")

PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted({{m.split(".")[0] for m in sys.modules}} & set({BANNED!r})))
"""


def test_modules_import_without_optional_libraries():
    modules = ["cfdyn"] + [f"cfdyn.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                           if p.stem not in ("__init__", "__main__")]
    assert len(modules) >= 9
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(BANNED=BANNED), *modules],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
