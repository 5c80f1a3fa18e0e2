"""Mutation gate: a fixed list of source mutants that the test suite must catch.

Each mutant names a file under src/spinforms, an exact source fragment that occurs there once, its replacement,
and the test modules that must catch it.  For each mutant the script copies src/ to a temporary directory,
applies the mutant, and runs the named modules against the copy with pytest -x -q; tests must run and fail
(pytest exit 1).  Any other exit (a collection or import error, an internal error, no tests collected) is a
gate error, not a catch, so a mutant that stops the package from importing is not counted as caught.  The
unmutated copy runs every named module first, and must pass.

The script exits 1 if a fragment is missing (a refactor moved the code: update the mutant), if the unmutated
copy fails, if a mutant survives, or on a gate error.  Removing a mutant is recorded in CHANGES.md, as a
removed test is.

Run from anywhere, with the test dependencies installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/spinforms
    fragment: str
    replacement: str
    modules: tuple[str, ...]  # under tests/


MUTANTS = (
    Mutant(
        "reduce-skips-constructor",  # copies and pickles keep the state dict, so deep copies come back writable
        "core.py",
        "    def __reduce__(self):\n        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)\n",
        "",
        ("test_core.py",),
    ),
    Mutant(
        "equality-ignores-arrays",
        "core.py",
        "getattr(other, f.name)) for f in fields(self) if f.compare)",
        "getattr(other, f.name)) for f in fields(self) if f.compare and f.name == 'n')",
        ("test_core.py",),
    ),
    Mutant(
        "local-list-cap",
        "core.py",
        "_require_qubits(len(self.ops), MAX_STATE_QUBITS)",
        "_require_qubits(len(self.ops), MAX_STATE_QUBITS + 1)",
        ("test_core.py",),
    ),
    Mutant(
        "flip-sign-tile",  # drops the (-1)^n of the tile choice
        "flip.py",
        "sign = (n + (start >> low).bit_count()) % 2",
        "sign = (start >> low).bit_count() % 2",
        ("test_flip.py",),
    ),
    Mutant(
        "flip-i-power",
        "flip.py",
        "phase=i_power(x.shape[0].bit_length() - 1)):\n        part =",
        "phase=i_power(x.shape[0].bit_length())):\n        part =",
        ("test_flip.py",),
    ),
    Mutant(
        "j-sign",
        "bases.py",
        "_minus_identity(gram[..., 1::2, 0::2], -unit)",
        "_minus_identity(gram[..., 1::2, 0::2], unit)",
        ("test_bases.py",),
    ),
    Mutant(
        "parity-chooses-i-or-j",  # the group defect judges by J where it should by I, and the reverse
        "bases.py",
        "    if kind is FormKind.ORTHOGONAL:\n        return np.linalg.norm(_minus_identity(",
        "    if kind is FormKind.SYMPLECTIC:\n        return np.linalg.norm(_minus_identity(",
        ("test_bases.py",),
    ),
    Mutant(
        "pair-slots",
        "bases.py",
        "return rows, np.minimum(rows, rows[::-1])",
        "return rows, rows >> 1",
        ("test_bases.py",),
    ),
    Mutant(
        "magic-phase",  # c_k without its i^n, wrong for n = 2 mod 4
        "bases.py",
        "_signed_blocks(out, 1 << (n - 1), i_power(n).real * _S2)",
        "_signed_blocks(out, 1 << (n - 1), _S2)",
        ("test_bases.py",),
    ),
    Mutant(
        "product-phases",  # i^(ones) in place of i^(zeros)
        "bases.py",
        "[np.array([1j, 1.0])] * n",
        "[np.array([1.0, 1j])] * n",
        ("test_bases.py",),
    ),
    Mutant(
        "tangle-skips-norm-check",  # every state is taken as normalized, with no warning
        "entanglement.py",
        "    if abs(norm_sq - 1.0) <= NORM_TOL:\n        return value\n",
        "    if norm_sq == norm_sq:\n        return value\n",
        ("test_entanglement.py",),
    ),
    Mutant(
        "ldexp-exponent",  # the rescaled residual is scaled back by 2^e, not 2^2e
        "core.py",
        "np.ldexp(1.0, -2 * exp)), dtype=np.float64), 2 * exp)",
        "np.ldexp(1.0, -2 * exp)), dtype=np.float64), exp)",
        ("test_bases.py", "test_groups.py"),
    ),
    Mutant(
        "det-drops-imaginary-part",
        "groups.py",
        "for part, out in ((phase.real, det.real), (phase.imag, det.imag)):",
        "for part, out in ((phase.real, det.real),):",
        ("test_groups.py",),
    ),
    Mutant(
        "exit-failed-verdict",
        "cli.py",
        "return 0 if all(verdicts.values()) else 1",
        "return 0 if all(verdicts.values()) else 2",
        ("test_cli.py",),
    ),
    Mutant(
        "exit-usage-error",
        "cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1',
        ("test_cli.py",),
    ),
)


def _copy_source(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, modules, cwd: Path) -> subprocess.CompletedProcess:
    """pytest -x -q on the named test modules, importing spinforms from ``src``; run in ``cwd``, so the
    hypothesis example database of a mutant stays out of the repository."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(
        args + [str(ROOT / "tests" / m) for m in modules], cwd=cwd, env=env, capture_output=True, text=True
    )


def _imports_from(src: Path, cwd: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = subprocess.run(
        [sys.executable, "-c", "import spinforms; print(spinforms.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    return probe.returncode == 0 and Path(probe.stdout.strip()).is_relative_to(src)


def _apply(src: Path, mutant: Mutant) -> str | None:
    """Write the mutant into the copy; the reason it cannot be applied, or None."""
    path = src / "spinforms" / mutant.file
    text = path.read_text()
    count = text.count(mutant.fragment)
    if count != 1:
        return f"fragment found {count} times in src/spinforms/{mutant.file}"
    path.write_text(text.replace(mutant.fragment, mutant.replacement))
    return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="spinforms-mutants-") as tmp:
        tmp = Path(tmp)
        clean = _copy_source(tmp / "clean")
        if not _imports_from(clean, tmp):
            print("the copy of src/ is not what the tests import (is another spinforms installed first?)")
            return 1
        modules = sorted({m for mutant in MUTANTS for m in mutant.modules})
        baseline = _pytest(clean, modules, tmp)
        if baseline.returncode != 0:
            print(f"the unmutated copy fails {' '.join(modules)}:\n{baseline.stdout[-3000:]}")
            return 1
        for i, mutant in enumerate(MUTANTS):
            src = _copy_source(tmp / f"m{i}")
            start = time.perf_counter()
            problem, caught_by = _apply(src, mutant), ""
            if problem is None:
                run = _pytest(src, mutant.modules, tmp)
                if run.returncode == 0:
                    problem = f"survived {' '.join(mutant.modules)}"
                elif run.returncode != 1:
                    problem = f"pytest exit {run.returncode}:\n{(run.stdout + run.stderr)[-3000:]}"
                # the first line of pytest's short summary names the test that caught it
                caught_by = next((line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
            verdict = f"caught  {caught_by[:100]}" if problem is None else f"FAILED: {problem}"
            print(f"{mutant.name:28s} {verdict}  ({time.perf_counter() - start:.1f} s)", flush=True)
            if problem is not None:
                failures.append(mutant.name)
            shutil.rmtree(src.parent)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
