"""End-to-end benchmark of mixedframes: the CLI, verify and library sessions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``cli``, ``verify`` and ``library``. Every
workload reports the same end-to-end metrics, where one operation is a CLI
command, a ``verify`` run or a library session:

- ``setup_s``: median over SETUP_PROBES fresh interpreters of importing the
  package and generating the workload's inputs;
- ``op_ms.p50`` / ``op_ms.p90``: the latency of one operation;
- ``ops_per_s``: operations completed per second of operation time, the
  median over the run's blocks (a CLI cycle, a library block): a rare input
  that makes one library session many times slower than its shape's usual
  cost then moves one block, not the figure;
- ``peak_rss_mb``: the peak resident memory of any process of the workload.

The benchmark runs pinned to one CPU with one BLAS thread (pinning.py),
except for the ``verify`` command itself. Set-up, CLI command and library
session times are scaled to a nominal machine speed by references timed
right before and after them (reference.py, workloads.Bracket); ``verify``
is not scaled. The unscaled values are in the detail line under
``raw_metrics``.

With ``--trace 1`` a separate pass wraps the public functions of each module
(see tracer.py) and reports calls, self time and counts per layer, the
import profile from ``-X importtime`` and the tracing overhead instead.

The output is a detail record (environment, input hash, sample counts,
failures and the per-workload names of the metrics) followed, as the last
line, by ``{"correct", "attempted", "failed", "metrics"}``. The program is
run from ``src/`` of the checkout with PYTHONPATH, as the tests run it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pinning import Pinning, pin

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
OUTPUT_DIR = ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The same numbers under the names a reader of each workload looks for:
# alias -> (metric, scale).
ALIASES = {
    "cli": {"cmd_s.p50": ("op_ms.p50", 1e-3), "cmd_s.p90": ("op_ms.p90", 1e-3), "cmds_per_s": ("ops_per_s", 1.0)},
    "verify": {"verify_default_s": ("op_ms.p50", 1e-3)},
    "library": {},
}

# The package each workload imports: the CLI module for commands.
PROGRAM_MODULE = {
    "cli": "mixedframes.cli",
    "verify": "mixedframes.cli",
    "library": "mixedframes",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROGRAM_MODULE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe(workload: str, seed: int) -> None:
    """Set-up in a fresh interpreter: import the package, then generate inputs."""
    import tracer

    sys.path.insert(0, str(ROOT / "src"))
    sys.stderr.write(tracer.BEGIN_MARK + "\n")
    sys.stderr.flush()
    __import__(PROGRAM_MODULE[workload])
    sys.stderr.write(tracer.END_MARK + "\n")
    sys.stderr.flush()
    import workloads

    if workload == "library":
        workloads.library_setup(ROOT, seed, ROOT / OUTPUT_DIR)
    else:
        workloads.INPUTS[workload](seed)


def _timed(cmd: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[-3:])} failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


def _probes(workload: str, seed: int, importtime: bool) -> tuple[list[float], list[str], list[float]]:
    """Time SETUP_PROBES set-ups, each with the mean of the import references around it."""
    from reference import IMPORT_REFERENCE

    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), __file__,
           "--probe", "--workload", workload, "--seed", str(seed)]
    walls, stderrs, references = [], [], [_timed(IMPORT_REFERENCE)[0]]
    for _ in range(SETUP_PROBES):
        wall, stderr = _timed(cmd)
        walls.append(wall)
        stderrs.append(stderr)
        references.append(_timed(IMPORT_REFERENCE)[0])
    return walls, stderrs, [0.5 * (a + b) for a, b in zip(references, references[1:])]


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, pinning: Pinning) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "caller_threads": pinning.env,
        "cpu_count": os.cpu_count(),
        "affinity": len(pinning.cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _end_to_end(latencies: list[float], block_ends: list[int], setup_walls: list[float]) -> dict[str, float]:
    import numpy

    p50, p90 = numpy.quantile(latencies, [0.5, 0.9])
    blocks = [latencies[begin:end] for begin, end in zip([0, *block_ends], block_ends) if end > begin]
    return {
        "setup_s": statistics.median(setup_walls),
        "op_ms.p50": 1000.0 * float(p50),
        "op_ms.p90": 1000.0 * float(p90),
        "ops_per_s": statistics.median(len(block) / sum(block) for block in blocks),
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "mixedframes" / "__init__.py").is_file():
        print(f"perfbench: no mixedframes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    pinning = pin()
    import tracer
    import workloads
    from reference import NOMINAL_S

    out_root = ROOT / OUTPUT_DIR
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_root))
    try:
        ctx = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace), pinning=pinning)
        setup_walls, stderrs, setup_references = _probes(args.workload, args.seed, bool(args.trace))
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not outcome.mismatches and outcome.attempted > 0
    raw: dict[str, float] = {}
    if args.trace:
        imports = [tracer.parse_importtime(text) for text in stderrs]
        values = {name: statistics.median(p[name] for p in imports) for name in tracer.IMPORT_METRICS}
        values.update(outcome.layers)
        units = dict(tracer.per_layer_spec())
        correct = correct and set(values) == set(units)
        trace_path = out_root / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(outcome.trace_record))
    else:
        units = END_TO_END
        nominal = NOMINAL_S.get(args.workload)
        scaled = [lat * nominal / ref for lat, ref in zip(outcome.latencies, outcome.reference_s)]
        setup_scaled = [wall * NOMINAL_S["cli"] / ref for wall, ref in zip(setup_walls, setup_references)]
        blocks = outcome.block_ends
        values = _end_to_end(scaled or outcome.latencies, blocks, setup_scaled) if outcome.latencies else {}
        raw = _end_to_end(outcome.latencies, blocks, setup_walls) if outcome.latencies else {}
        correct = correct and bool(values)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    aliases = {alias: values[name] * scale for alias, (name, scale) in ALIASES[args.workload].items()
               if name in values and not args.trace}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": workloads.input_hash(outcome.inputs),
        "environment": environment(args.seed, pinning),
        "operations": len(outcome.latencies),
        "setup_walls_s": setup_walls,
        "setup_reference_s": setup_references,
        "failed_ratio": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "errors": outcome.errors,
        "mismatches": outcome.mismatches,
        "aliases": aliases,
        "raw_metrics": raw,
        "latencies_s": outcome.latencies,
        "reference_s": outcome.reference_s,
        "block_ends": outcome.block_ends,
        "reference_nominal_s": NOMINAL_S.get(args.workload),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
