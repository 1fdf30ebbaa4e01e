"""Mutation guard for the float checks' bounds.

Each mutant below is one text substitution in the package, with the test
file that must kill it.  For each, the script copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, applies the substitution
there, and runs the named tests on the copy with pytest.  A mutant is
killed when pytest reports a failing test (exit code 1).  Before any
mutant, the same tests must pass on an unmutated copy.

Run from anywhere:

    python3 tools/mutants.py

Exit 0 when every mutant is killed; 1 when one survives, a substitution
no longer applies, or a run ends in anything but pass or fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMERIC = "src/eiskron/numeric.py"

# (name, file, text, replacement, tests that must fail); each text occurs
# exactly once in its file
MUTANTS = (
    ("relation and T-modularity bound 1e-8 -> 1e-3",
     NUMERIC, "TOL = 1e-8  #", "TOL = 1e-3  #", "tests/test_numeric.py"),
    ("finite-difference bound FD_TOL 1e-5 -> 1e-2",
     NUMERIC, "FD_TOL = 1e-5", "FD_TOL = 1e-2", "tests/test_numeric.py"),
    ("S-modularity bound 1e-6 -> 1e-2",
     NUMERIC, "S_TOL = 1e-6", "S_TOL = 1e-2", "tests/test_numeric.py"),
    ("asymptotics bound 1e-6 -> 1e-2",
     NUMERIC, "LIMIT_TOL = 1e-6", "LIMIT_TOL = 1e-2", "tests/test_numeric.py"),
    ("asymptotics verdict ignores the real ray",
     NUMERIC, 'and report.get("real_ray_error", 0.0) < LIMIT_TOL', "and True",
     "tests/test_numeric.py"),
    ("make_report passes below 1000 * tol",
     NUMERIC, '"pass": bool(residual < tol)', '"pass": bool(residual < 1000 * tol)',
     "tests/test_numeric.py"),
)


def run_tests(tests: str, mutant=None) -> int:
    """pytest's exit code for tests on a copy of the package, with mutant
    (file, text, replacement) applied to the copy first."""
    with tempfile.TemporaryDirectory(prefix="eiskron-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path, text, replacement = mutant
            source = (copy / path).read_text()
            if source.count(text) != 1:
                raise SystemExit(f"mutant text {text!r} occurs {source.count(text)} "
                                 f"times in {path}, not once")
            (copy / path).write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        imported = subprocess.run(
            [sys.executable, "-c", "import eiskron; print(eiskron.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True).stdout
        if not Path(imported.strip()).is_relative_to(copy):
            raise SystemExit(f"the tests would import {imported.strip()}, not the copy")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    for tests in sorted({m[-1] for m in MUTANTS}):
        code = run_tests(tests)
        if code != 0:
            print(f"unmutated copy: {tests} exits {code}, not 0")
            return 1
    survived = 0
    for name, path, text, replacement, tests in MUTANTS:
        code = run_tests(tests, (path, text, replacement))
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        survived += verdict != "killed"
        print(f"{verdict:9} {name} ({tests})")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
