"""Characterization corpus: the bytes of 13 CLI commands off the defaults.

The fixtures in ``tests/fixtures`` pin the default figures, ``test_cli`` the
default demos and criterion 9 ``verify --grid-n 256``; none of them reads a
grid size, quadrature order or parameter other than the defaults. This
corpus (a golden master, as in Feathers, *Working Effectively with Legacy
Code*, 2004) runs each figure at each grid size of {1024, 4096, 8192} and
each quadrature order of {32, 64, 128} (a Latin square), the three demos,
``demo semigroup`` with a committed ``--densities`` file, and one
``verify --grid-n 1024``, all at non-default parameters, in-process. It
compares the SHA-256 of every file each command writes with
``fixtures/corpus_sha256.json``.

After a deliberate change of output bytes, named in CHANGES.md, rewrite the
digests with ``PYTHONPATH=src python tests/test_corpus.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mixedframes.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "corpus_sha256.json"

# figure id -> its three (grid_n, quad_order, parameters) rows of the Latin square
_FIGURE_RUNS = {
    "a1a2": [
        (1024, 32, ["--alpha", "0.6", "--a2", "1.5"]),
        (4096, 64, ["--alpha", "0.9", "--a2", "3.0"]),
        (8192, 128, ["--alpha", "1.1", "--a2", "4.2"]),
    ],
    "a1a2diff": [
        (4096, 128, ["--alpha", "0.6", "--a2", "1.5"]),
        (8192, 32, ["--alpha", "0.9", "--a2", "3.0"]),
        (1024, 64, ["--alpha", "1.1", "--a2", "4.2"]),
    ],
    "gaussian-smear": [
        (8192, 64, ["--alpha", "0.6", "--sigma", "0.7", "--a0", "0.3"]),
        (1024, 128, ["--alpha", "0.9", "--sigma", "1.4", "--a0", "-1.2"]),
        (4096, 32, ["--alpha", "1.1", "--sigma", "0.5", "--a0", "2.0"]),
    ],
}

COMMANDS = {
    **{
        f"figure-{figure_id}-{grid_n}-{quad_order}": [
            "figure", figure_id, "--grid-n", str(grid_n), "--quad-order", str(quad_order), *params
        ]
        for figure_id, runs in _FIGURE_RUNS.items()
        for grid_n, quad_order, params in runs
    },
    "demo-thermal": ["demo", "thermal", "--temperature", "2.5", "--mass", "0.6"],
    "demo-galilei-boost": [
        "demo", "galilei-boost", "--temperature", "0.8", "--mass", "1.7", "--v0", "1.3", "--p", "0.4"
    ],
    "demo-semigroup": [
        "demo", "semigroup", "--a2", "1.75", "--a0", "-0.5",
        "--densities", str(FIXTURES / "corpus_densities.txt"),
    ],
    "verify-1024": [
        "verify", "--grid-n", "1024", "--quad-order", "96",
        "--alpha", "0.9", "--a2", "3.0", "--sigma", "0.8", "--a0", "0.5",
    ],
}


def digests(argv: list[str], out: Path) -> dict[str, str]:
    """Run one command in-process; the SHA-256 of every file it writes, by file name."""
    assert main([*argv, "--out", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_keeps_its_bytes(name, tmp_path):
    assert digests(COMMANDS[name], tmp_path) == json.loads(DIGESTS.read_text())[name]


def test_corpus_names_every_command():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(argv, Path(tmp) / name) for name, argv in COMMANDS.items()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} commands to {DIGESTS}", file=sys.stderr)
