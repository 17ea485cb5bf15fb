"""Command-line interface: figure reproduction, demos and verification.

Parameter precedence is built-in defaults < config file < command-line
flags. The output directory falls back to the MIXEDFRAME_OUT environment
variable, then ./out.

Exit codes: 0 on success, 1 when a ``verify`` check fails or a file cannot be
read or written, 2 when the input is rejected (one line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ResourceLimitError, finite, positive
from .figures import DEMO_IDS, FIGURE_IDS, build_demo, build_figure, write_artifact
from .group_algebra import parse_densities
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
    "quad_order": 64,
}

_POSITIVE_KEYS = {"alpha", "sigma", "temperature", "mass", "extent"}


class ConfigError(ValueError):
    """Invalid configuration value or file."""


def parse_config_file(path: Path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    values: dict[str, float | int | str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "out":
            values[key] = value
            continue
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = type(DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _validate(params: dict) -> None:
    grid_n = params["grid_n"]
    if grid_n < 256 or grid_n > 8192 or grid_n & (grid_n - 1):
        raise ConfigError(f"grid_n must be a power of two in [256, 8192], got {grid_n}")
    if params["quad_order"] < 16:
        raise ConfigError(f"quad_order must be at least 16, got {params['quad_order']}")
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
            p.add_argument(flag, dest=key, type=type(DEFAULTS[key]), default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None, help="key = value config file")

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

    ver = sub.add_parser("verify", help="run every invariant suite and write a report")
    add_common(ver)
    ver.add_argument(
        "--tolerance-scale",
        dest="tolerance_scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (0 injects a guaranteed failure)",
    )
    return parser


def _effective_params(args: argparse.Namespace) -> tuple[dict, Path]:
    params = dict(DEFAULTS)
    config_out = None
    if args.config is not None:
        from_file = parse_config_file(Path(args.config))
        config_out = from_file.pop("out", None)
        params.update(from_file)
    for key in DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    _validate(params)
    out = args.out or config_out or os.environ.get("MIXEDFRAME_OUT") or "out"
    return params, Path(out)


def _run_verify(params: dict, out_dir: Path, tolerance_scale: float) -> int:
    results, figures = run_checks(params, tolerance_scale)
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
                    raise ConfigError(f"bad densities file: {exc}") from exc
            written = write_artifact(build_demo(args.demo_id, params, extra), out_dir)
        else:
            return _run_verify(params, out_dir, args.tolerance_scale)
    except (ValueError, ResourceLimitError) as exc:
        # rejected input: configuration, parameters or a library domain check
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
