"""Command-line interface: figure reproduction, demos and verification.

Every run parameter has one flag, whose default is its entry in
``DEFAULTS``. The output directory is ``--out``, else the MIXEDFRAME_OUT
environment variable, else ./out.

Exit codes: 0 on success; 2 on rejected input, a ``DomainError`` or a
``ResourceLimitError`` (one line on stderr); 1 when a ``verify`` check fails or
a file cannot be read or written; any other exception is a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import DomainError, ResourceLimitError, finite, positive
from .figures import DEMO_IDS, FIGURE_IDS, build_demo, build_figure, write_artifact
from .group_algebra import parse_densities
from .quantum_system import COMB_MIN_ORDER, DEFAULT_QUAD_ORDER
from .textio import csv_table, fmt, write_text_atomic
from .verify import run_checks

DEFAULTS: dict[str, float | int] = {
    "alpha": 0.75,
    "a2": 2.5,
    "sigma": 1.0,
    "a0": 0.0,
    "temperature": 1.0,
    "mass": 1.0,
    "v0": 0.0,
    "p": 0.0,
    "grid_n": 4096,
    "extent": 40.0,
    "quad_order": DEFAULT_QUAD_ORDER,
}

_POSITIVE_KEYS = {"alpha", "sigma", "temperature", "mass", "extent"}


def _validate(params: dict) -> None:
    grid_n = params["grid_n"]
    if grid_n < 256 or grid_n > 8192 or grid_n & (grid_n - 1):
        raise DomainError(f"grid_n must be a power of two in [256, 8192], got {grid_n}")
    order = params["quad_order"]
    if order < COMB_MIN_ORDER:
        raise DomainError(f"quad_order must be at least {COMB_MIN_ORDER}, got {order}")
    for key, default in DEFAULTS.items():
        if isinstance(default, float):
            (positive if key in _POSITIVE_KEYS else finite)(key, params[key])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedframes",
        description="Mixed reference-frame transformations: figures, demos and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        for key in DEFAULTS:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=type(DEFAULTS[key]), default=DEFAULTS[key])
        p.add_argument("--out", default=None, help="output directory")

    fig = sub.add_parser("figure", help="reproduce a reference figure as CSV + plot script")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    add_common(fig)

    demo = sub.add_parser("demo", help="run a demonstration dataset")
    demo.add_argument("demo_id", choices=DEMO_IDS)
    demo.add_argument(
        "--densities",
        default=None,
        help="file of serialized group densities (blank-line separated) to include "
        "in the semigroup table",
    )
    add_common(demo)

    add_common(sub.add_parser("verify", help="run every invariant suite and write a report"))
    return parser


def _effective_params(args: argparse.Namespace) -> tuple[dict, Path]:
    params = {key: getattr(args, key) for key in DEFAULTS}
    _validate(params)
    return params, Path(args.out or os.environ.get("MIXEDFRAME_OUT") or "out")


def _run_verify(params: dict, out_dir: Path) -> int:
    results, figures = run_checks(params)
    rows = [
        [r.name, r.parameters, fmt(r.residual), fmt(r.tolerance), "pass" if r.passed else "fail"]
        for r in results
    ]
    header = ["check", "parameters", "residual", "tolerance", "status"]
    write_text_atomic(out_dir / "verify_report.csv", csv_table(header, rows))
    for artifact in figures.values():
        write_artifact(artifact, out_dir)

    failed = [r for r in results if not r.passed]
    n_pass = len(results) - len(failed)
    print(f"verify: {n_pass}/{len(results)} checks passed; report in {out_dir / 'verify_report.csv'}")
    if failed:
        print(f"verify: first failing check: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params, out_dir = _effective_params(args)
        if args.command == "figure":
            written = write_artifact(build_figure(args.figure_id, params), out_dir)
        elif args.command == "demo":
            extra = None
            if args.densities is not None:
                try:
                    extra = parse_densities(Path(args.densities).read_text())
                except ValueError as exc:
                    raise DomainError(f"bad densities file: {exc}") from exc
            written = write_artifact(build_demo(args.demo_id, params, extra), out_dir)
        else:
            return _run_verify(params, out_dir)
    except (DomainError, ResourceLimitError) as exc:
        # rejected input: a parameter, a densities file, or a library domain check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
