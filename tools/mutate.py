"""First-order mutation sweep of modules against the Tier-1 suite.

Each mutant changes one site of one module's syntax tree:

- ``+`` and ``-`` swapped, and ``*`` and ``/`` (also in ``+=`` and the like);
- one comparison flipped to or from its strict form (``<`` / ``<=``, ``>`` / ``>=``);
- one nonzero float literal scaled by 1 + 1e-6.

The repository is copied once to a temporary directory and every mutant is
written there in turn, so the checkout is never changed: pyproject's
``pythonpath = ["src"]`` would put the checkout's ``src`` ahead of any other
copy. The copy first runs the suite on each module as ``ast.unparse`` prints
it, unmutated, which must pass. Then each mutant runs the suite with ``-x``,
one at a time: it is killed if the suite fails or times out, and survives if
it passes. The sweep exits 1 if any mutant survives.

    python tools/mutate.py src/mixedframes/cli.py src/mixedframes/errors.py

It runs by hand, not in the test suite: a survivor costs a whole suite run.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "out", "*.egg-info")
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
NUDGE = 1.0 + 1e-6


def _sites(tree: ast.AST):
    """Yield ``(node, index, label)`` for every mutable site, in ``ast.walk`` order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, None, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and node.value * NUDGE != node.value
        ):
            yield node, None, f"{node.value!r} -> {node.value * NUDGE!r}"


def mutants(source: str) -> list[tuple[int, str]]:
    """Line and label of each mutant of ``source``; its position is its index."""
    return [(node.lineno, label) for node, _, label in _sites(ast.parse(source))]


def mutate(source: str, index: int) -> str:
    """``source`` with mutant ``index`` applied, printed by ``ast.unparse``."""
    tree = ast.parse(source)
    node, i, _ = list(_sites(tree))[index]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value *= NUDGE
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def run_suite(tree: Path, timeout: float) -> bool | None:
    """True if the Tier-1 suite passes in ``tree``, None if it times out.

    Hypothesis draws from seed 0, so every run of a sweep meets the same
    examples: with fresh draws, a mutant can be killed in one sweep by a random
    example and survive the next, and kill counts move between runs.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    try:
        result = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files in the repository")
    args = parser.parse_args(argv)
    modules = [m.resolve().relative_to(ROOT) for m in args.modules]

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*IGNORED))
        originals = {m: (tree / m).read_text() for m in modules}
        for module, source in originals.items():
            (tree / module).write_text(ast.unparse(ast.parse(source)))
        start = time.monotonic()
        if not run_suite(tree, timeout=3600):
            print("the unmutated tree fails its suite; nothing to sweep", file=sys.stderr)
            return 2
        timeout = 60 + 4 * (time.monotonic() - start)

        killed = survived = 0
        for module, source in originals.items():
            for index, (line, label) in enumerate(mutants(source)):
                (tree / module).write_text(mutate(source, index))
                passed = run_suite(tree, timeout)
                (tree / module).write_text(ast.unparse(ast.parse(source)))
                status = "SURVIVED" if passed else "timeout" if passed is None else "killed"
                killed += not passed
                survived += bool(passed)
                print(f"{status:8s} {index:4d} {module}:{line} {label}", flush=True)
    total = killed + survived
    print(f"{killed}/{total} killed ({100.0 * killed / max(total, 1):.1f}%), {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
