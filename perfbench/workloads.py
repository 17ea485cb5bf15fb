"""The three workloads: seeded inputs, the closed measuring loop and the output checks.

Every workload is closed-loop with one client: the next request starts only
after the previous one has finished and been checked. The benchmark runs
pinned to one CPU (pinning.py); only ``verify`` gets every CPU and the
caller's BLAS threads back, as its dense linear algebra is meant to use
them. ``cli`` times a reference import and ``library`` a reference kernel
(reference.py) before the first request and after every request; run.py
scales each request's time by the mean of the references right before and
right after it (see Bracket). ``verify`` is not scaled.

- ``cli``: figure and demo commands, each in a fresh interpreter, in cycles
  (see cli_inputs). Grid size and quadrature order of the seeded figures
  follow a fixed Latin square, so every cycle carries the same mix of sizes;
  the seed draws the continuous parameters and the order.
- ``verify``: ``verify`` at the default grid in a fresh interpreter.
- ``library``: in-process sessions (convolve, invertibility, channel,
  density, purity, thermal state, boost, CSV export). A block holds a fixed
  design of session shapes (densities, components and their kinds, grid,
  quadrature order, packets), drawn once from the ranges below; the seed
  draws every value and the order. Session cost spans two orders of
  magnitude with the shape, so drawing shapes per seed would make the
  per-run throughput swing by a factor of three.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from pinning import Pinning
from reference import IMPORT_REFERENCE, time_kernel

COMMAND_TIMEOUT_S = 150.0
FIGURES = ("a1a2", "a1a2diff", "gaussian-smear")
GRIDS = (1024, 4096, 8192)
CLI_QUAD_ORDERS = (32, 64, 128)
MAX_CYCLES = 12
CLOSED_FORM_TOL = 1e-6  # verify's own bound for the figure closed forms


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    pinning: Pinning | None = None  # what run.py's pin() changed, to undo for verify

    @property
    def env(self) -> dict:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@dataclass
class Outcome:
    """What a workload measured and checked."""

    inputs: object
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # mean reference time around each latency
    block_ends: list[int] = field(default_factory=list)  # len(latencies) after each cycle or block
    layers: dict[str, float] = field(default_factory=dict)
    trace_record: dict | None = None

    def mismatch(self, message: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


class Bracket:
    """Pairs each latency with the mean of the references timed right before and after it.

    A shared host's CPU switches speed about once a second, so a reference
    on either side of a request tracks the speed the request saw better than
    one before it alone.
    """

    def __init__(self, outcome: Outcome, measure) -> None:
        self.outcome, self.measure = outcome, measure
        self.before = measure()

    def add(self, latency: float | None) -> None:
        """Time the reference after a request; ``latency`` is None when it failed."""
        after = self.measure()
        if latency is not None:
            self.outcome.latencies.append(latency)
            self.outcome.reference_s.append(0.5 * (self.before + after))
        self.before = after

    def end_block(self) -> None:
        self.outcome.block_ends.append(len(self.outcome.latencies))

    def restart(self) -> None:
        """Time a fresh reference after work that is not measured."""
        self.before = self.measure()


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more unit of the size done so far ends within ``seconds``.

    Loops run whole units (a cycle, a block) so every run carries the same
    mix; stopping before a unit that would overrun keeps the unit count off
    the boundary where it would flip between runs.
    """
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def input_hash(inputs: object) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _run(cmd: list[str], ctx: Context, unpinned: Pinning | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """Run and time a command; with ``unpinned``, on the CPUs and threads that pin() took away."""
    env, preexec = ctx.env, None
    if unpinned is not None:
        env = {name: value for name, value in env.items() if name not in unpinned.env}
        env.update({name: value for name, value in unpinned.env.items() if value is not None})
        cpus = unpinned.cpus

        def preexec() -> None:
            os.sched_setaffinity(0, cpus)

    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ctx.work, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        preexec_fn=preexec,
    )
    return proc, time.perf_counter() - start


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "mixedframes.cli", *argv]


def _driver(trace_path: Path, request: int, argv: list[str]) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("driver.py")), str(trace_path), str(request), *argv]


def _fixtures(root: Path) -> dict[str, bytes]:
    fixtures = root / "tests" / "fixtures"
    return {f"{fid}{ext}": (fixtures / f"{fid}{ext}").read_bytes() for fid in FIGURES for ext in (".csv", ".gp")}


def _check_fixtures(out_dir: Path, fixtures: dict[str, bytes], outcome: Outcome, label: str) -> bool:
    ok = True
    for name, expected in fixtures.items():
        path = out_dir / name
        if not path.is_file() or path.read_bytes() != expected:
            outcome.mismatch(f"{label}: {name} differs from tests/fixtures")
            ok = False
    return ok


def _dir_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class _TraceCollector:
    """Merges the per-process traces written by the driver."""

    def __init__(self) -> None:
        self.processes: list[dict] = []

    def add(self, trace_path: Path, request: int, argv: list[str], wall_s: float) -> None:
        data = json.loads(trace_path.read_text())
        trace_path.unlink()
        data.update(request=request, argv=argv, wall_s=wall_s)
        self.processes.append(data)

    def layer_metrics(self) -> dict[str, float]:
        totals: dict[str, dict[str, float]] = {}
        counts: dict[str, float] = {}
        overhead = 0.0
        for proc in self.processes:
            proc_totals = tracer.span_totals(proc["spans"])
            for name, entry in proc_totals.items():
                acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key, value in entry.items():
                    acc[key] += value
            for key, value in proc["counts"].items():
                counts[key] = counts.get(key, 0.0) + value
            main_s = proc_totals.get("cli.main", {"total_s": 0.0})["total_s"]
            overhead += proc["wall_s"] - proc["import_s"] - main_s
        out = tracer.layer_metrics(totals, counts)
        out["cli.process_overhead_s"] = overhead
        out["trace.spans"] = sum(len(proc["spans"]) for proc in self.processes)
        return out


# ---------------------------------------------------------------------------
# cli


def cli_inputs(seed: int) -> list[list[list[str]]]:
    """MAX_CYCLES cycles of CLI argument lists (without --out).

    A cycle runs each figure at every grid size and every quadrature order
    once (a Latin square over three rows), each demo three times, one of
    those 18 seeded commands a second time (its output must repeat byte for
    byte), and the three figures at default parameters (their .csv and .gp
    must match the fixtures): 22 commands in seeded order.
    """
    rng = np.random.default_rng(seed)
    cycles = []
    for _ in range(MAX_CYCLES):
        commands = []
        for row in range(3):
            for i, fid in enumerate(FIGURES):
                argv = [
                    "figure", fid,
                    "--grid-n", str(GRIDS[(i + row) % 3]),
                    "--quad-order", str(CLI_QUAD_ORDERS[(2 * i + row) % 3]),
                    "--alpha", repr(float(rng.uniform(0.5, 1.0))),
                ]
                if fid == "gaussian-smear":
                    argv += ["--sigma", repr(float(rng.uniform(0.5, 2.0)))]
                else:
                    argv += ["--a2", repr(float(rng.uniform(1.0, 5.0)))]
                commands.append(argv)
            for demo in ("thermal", "galilei-boost"):
                commands.append(
                    [
                        "demo", demo,
                        "--temperature", repr(float(rng.uniform(0.5, 2.0))),
                        "--mass", repr(float(rng.uniform(0.5, 2.0))),
                    ]
                )
            commands.append(["demo", "semigroup", "--a2", repr(float(rng.uniform(1.0, 5.0)))])
        commands.append(list(commands[int(rng.integers(len(commands)))]))
        commands.extend(["figure", fid] for fid in FIGURES)
        cycles.append([commands[i] for i in rng.permutation(len(commands))])
    return cycles


def _comb_aliasing(alpha: float, sigma: float, quad_order: int) -> float:
    """Bound on the density error of the node comb that discretises smearing.

    The channel replaces the Gaussian smearing (variance sigma^2) by
    quad_order nodes spaced h = 16 sigma / (quad_order - 1). By Poisson
    summation the comb's spectrum repeats at p = 2 pi m / h; against a packet
    density of variance alpha^2, each of the two first aliases adds at most
    exp(-2 pi^2 s^2 / h^2) / sqrt(2 pi (sigma^2 + alpha^2)) to the density,
    with s^2 = sigma^2 alpha^2 / (sigma^2 + alpha^2).
    """
    h = 16.0 * sigma / (quad_order - 1)
    var = sigma**2 + alpha**2
    s2 = sigma**2 * alpha**2 / var
    return 2.0 * math.exp(-2.0 * math.pi**2 * s2 / h**2) / math.sqrt(2.0 * math.pi * var)


def _check_cli_output(argv: list[str], out_dir: Path, ctx_state: dict, outcome: Outcome) -> bool:
    label = " ".join(argv)
    produced = _dir_bytes(out_dir)
    if produced != ctx_state["repeats"].setdefault(label, produced):
        outcome.mismatch(f"{label}: repeated command gave different bytes")
        return False
    if len(argv) == 2 and argv[0] == "figure":
        fixtures = {k: v for k, v in ctx_state["fixtures"].items() if k.rsplit(".", 1)[0] == argv[1]}
        return _check_fixtures(out_dir, fixtures, outcome, label)
    kind, target = argv[0], argv[1]
    meta_name = {"galilei-boost": "galilei_boost"}.get(target, target)
    meta = json.loads((out_dir / f"{meta_name}.json").read_text())
    if kind == "figure":
        gap = max(meta["sup_error_mixed"], meta["sup_error_pure"])
        tol = CLOSED_FORM_TOL
        if target == "gaussian-smear":
            tol += _comb_aliasing(meta["param_alpha"], meta["param_sigma"], meta["param_quad_order"])
        if not gap <= tol:
            outcome.mismatch(f"{label}: closed-form gap {gap} above {tol}")
            return False
    elif target == "thermal":
        if not meta["maxwell_boltzmann_gap"] <= 1e-12:
            outcome.mismatch(f"{label}: Maxwell-Boltzmann gap {meta['maxwell_boltzmann_gap']}")
            return False
    elif target == "galilei-boost":
        if not meta["thermal_reference_gap"] <= 1e-9:
            outcome.mismatch(f"{label}: thermal reference gap {meta['thermal_reference_gap']}")
            return False
    else:
        lines = (out_dir / "semigroup.csv").read_text().splitlines()
        header = lines[0].split(",")
        pure_col, inv_col = header.index("product_pure"), header.index("product_invertible")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[pure_col] == "true" and cells[inv_col] != "true":
                outcome.mismatch(f"{label}: pure product {cells[0]} reported non-invertible")
                return False
    return True


def _reference_import(ctx: Context) -> float:
    proc, wall = _run(IMPORT_REFERENCE, ctx)
    if proc.returncode != 0:
        raise RuntimeError(f"reference import failed: {proc.stderr.strip()[-300:]}")
    return wall


def run_cli(ctx: Context) -> Outcome:
    cycles = cli_inputs(ctx.seed)
    outcome = Outcome(inputs=cycles)
    state = {"fixtures": _fixtures(ctx.root), "repeats": {}}
    collector = _TraceCollector()
    traced_walls: list[float] = []
    request = 0
    start = time.perf_counter()
    bracket = Bracket(outcome, lambda: _reference_import(ctx))
    for c, commands in enumerate(cycles[:1] if ctx.trace else cycles):
        if c > 0 and not another_fits(start, c, ctx.seconds):
            break
        for argv in commands:
            out_dir = ctx.work / f"cmd-{request}"
            full = argv + ["--out", str(out_dir)]
            outcome.attempted += 1
            proc, wall = _run(_cli(full), ctx)
            if _command_ok(proc, argv, outcome) and _check_cli_output(argv, out_dir, state, outcome):
                bracket.add(wall)
            else:
                outcome.failed += 1
                bracket.add(None)
            shutil.rmtree(out_dir, ignore_errors=True)
            if ctx.trace:
                traced_walls.append(_traced(collector, ctx, request, full, outcome))
                shutil.rmtree(out_dir, ignore_errors=True)
            request += 1
        bracket.end_block()
    if ctx.trace:
        _finish_trace(outcome, collector, sum(outcome.latencies), sum(traced_walls))
    return outcome


def _command_ok(proc, argv: list[str], outcome: Outcome) -> bool:
    if proc.returncode == 0:
        return True
    outcome.error(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return False


def _traced(collector: _TraceCollector, ctx: Context, request: int, full: list[str], outcome: Outcome) -> float:
    """Run one command under the driver; its output was checked untraced."""
    trace_path = ctx.work / f"trace-{request}.json"
    proc, wall = _run(_driver(trace_path, request, full), ctx)
    if proc.returncode != 0 or not trace_path.is_file():
        outcome.failed += 1
        outcome.error(f"traced {' '.join(full)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    else:
        collector.add(trace_path, request, full, wall)
    return wall


def _finish_trace(outcome: Outcome, collector: _TraceCollector, untraced_s: float, traced_s: float) -> None:
    outcome.layers = collector.layer_metrics()
    _overhead(outcome.layers, untraced_s, traced_s)
    outcome.trace_record = {"processes": collector.processes}


def _overhead(layers: dict, untraced_s: float, traced_s: float) -> None:
    layers["trace.untraced_s"] = untraced_s
    layers["trace.traced_s"] = traced_s
    layers["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0


# ---------------------------------------------------------------------------
# verify

_VERIFY_SUMMARY = re.compile(r"verify: (\d+)/(\d+) checks passed")
VERIFY_MIN_CHECKS = 40
VERIFY = ["verify"]
VERIFY_FAST = ["verify", "--grid-n", "256"]


def verify_inputs(seed: int) -> dict:
    """``verify`` takes no generated input; the seed is recorded with the command."""
    return {"seed": seed, "command": VERIFY}


def _check_verify(argv: list[str], proc, out_dir: Path, state: dict, outcome: Outcome) -> bool:
    label = " ".join(argv)
    match = _VERIFY_SUMMARY.search(proc.stdout)
    if not match or match.group(1) != match.group(2) or int(match.group(2)) < VERIFY_MIN_CHECKS:
        outcome.mismatch(f"{label}: unexpected summary {proc.stdout.strip()!r}")
        return False
    report = (out_dir / "verify_report.csv").read_bytes()
    statuses = [line.rsplit(",", 1)[-1] for line in report.decode().splitlines()[1:]]
    if len(statuses) != int(match.group(2)) or any(s != "pass" for s in statuses):
        outcome.mismatch(f"{label}: report rows do not all pass")
        return False
    if report != state.setdefault(label, report):
        outcome.mismatch(f"{label}: verify_report.csv differs between runs")
        return False
    if argv == VERIFY:
        return _check_fixtures(out_dir, state["fixtures"], outcome, label)
    return True


def _verify_once(ctx: Context, argv: list[str], request: int, state: dict, outcome: Outcome,
                 collector: _TraceCollector | None = None) -> float:
    """Run and check one verify command, under the driver when ``collector`` is given."""
    out_dir = ctx.work / f"verify-{request}"
    full = argv + ["--out", str(out_dir)]
    trace_path = ctx.work / f"trace-{request}.json"
    outcome.attempted += 1
    cmd = _cli(full) if collector is None else _driver(trace_path, request, full)
    proc, wall = _run(cmd, ctx, unpinned=ctx.pinning)
    if _command_ok(proc, argv, outcome) and _check_verify(argv, proc, out_dir, state, outcome):
        if collector is None:
            outcome.latencies.append(wall)
            outcome.block_ends.append(len(outcome.latencies))
        else:
            collector.add(trace_path, request, full, wall)
    else:
        outcome.failed += 1
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall


def run_verify(ctx: Context) -> Outcome:
    """``verify`` at the default grid, once per run: it takes most of a minute.

    The traced pass runs the default grid under the driver for the layer
    figures, and the fast mode (``--grid-n 256``) untraced and traced for
    the tracing overhead; a second default-grid run would not fit in the
    time one run may take.
    """
    outcome = Outcome(inputs=verify_inputs(ctx.seed))
    state: dict = {"fixtures": _fixtures(ctx.root)}
    if not ctx.trace:
        _verify_once(ctx, VERIFY, 0, state, outcome)
        return outcome
    untraced = _verify_once(ctx, VERIFY_FAST, 0, state, outcome)
    traced = _verify_once(ctx, VERIFY_FAST, 1, state, outcome, _TraceCollector())
    collector = _TraceCollector()
    _verify_once(ctx, VERIFY, 2, state, outcome, collector)
    _finish_trace(outcome, collector, untraced, traced)
    return outcome


# ---------------------------------------------------------------------------
# library

LIBRARY_GRIDS = (1024, 4096, 8192)
LIBRARY_QUAD_ORDERS = (16, 32)
EXTENT = 40.0
BLOCK_SESSIONS = 24
DESIGN_SEED = 20250811
MAX_OUTPUT_AMPLITUDES = 1 << 22  # keeps a session's channel output near 64 MiB
BAND, FLOOR = 10.0, 1e-3
MAX_BLOCKS = 16


def _output_terms(shape: dict) -> int:
    diracs = math.prod(kinds.count("dirac") for kinds in shape["kinds"])
    total = math.prod(len(kinds) for kinds in shape["kinds"])
    return shape["packets"] * (diracs + (total - diracs) * shape["quad_order"])


def library_design() -> list[dict]:
    """The session shapes of one block: drawn once, the same for every seed.

    Shapes follow the spec: two or three densities with one to three Dirac
    or Gaussian components each, n in LIBRARY_GRIDS, quad_order in
    LIBRARY_QUAD_ORDERS and one or two packets. A shape whose channel output
    would hold more than MAX_OUTPUT_AMPLITUDES amplitudes is drawn again, to
    keep memory small; one shape whose product is a point mass is added so
    the invertibility oracle always runs.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    shapes = []
    while len(shapes) < BLOCK_SESSIONS:
        shape = {
            "kinds": [
                ["dirac" if rng.random() < 0.5 else "gauss" for _ in range(int(rng.integers(1, 4)))]
                for _ in range(int(rng.integers(2, 4)))
            ],
            "n": int(rng.choice(LIBRARY_GRIDS)),
            "quad_order": int(rng.choice(LIBRARY_QUAD_ORDERS)),
            "packets": int(rng.integers(1, 3)),
        }
        if _output_terms(shape) * shape["n"] <= MAX_OUTPUT_AMPLITUDES:
            shapes.append(shape)
    shapes.append({"kinds": [["dirac"], ["dirac"]], "n": 4096, "quad_order": 32, "packets": 1})
    return shapes


def _draw_density(rng: np.random.Generator, kinds: list[str]) -> list:
    """Components as in verify's smearing generator: [weight, kind, a, b]."""
    weights = rng.random(len(kinds)) + 0.2
    weights /= weights.sum()
    comps = []
    for w, kind in zip(weights, kinds):
        if kind == "dirac":
            comps.append([float(w), kind, float(rng.uniform(-4.0, 4.0)), 0.0])
        else:
            comps.append([float(w), kind, float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.04, 1.0))])
    return comps


def _product_components(densities: list[list]) -> list[tuple[float, float, float]]:
    """Closed-form convolution: (weight, location or mean, variance)."""
    out = [(1.0, 0.0, 0.0)]
    for comps in densities:
        out = [(w1 * w2, a1 + a2, v1 + v2) for w1, a1, v1 in out for w2, _, a2, v2 in comps]
    return out


def _inside_box(densities: list[list]) -> bool:
    """Every translation of the channel stays inside half the periodic box.

    The program rejects a translation of half the box or more as out of its
    domain, so such a session is invalid input rather than a failure.
    Sessions whose packets only reach the box edge are kept.
    """
    reach = max(abs(a) + 8.0 * math.sqrt(v) for _, a, v in _product_components(densities))
    return reach < 0.5 * EXTENT


def library_inputs(seed: int) -> list[list[dict]]:
    """MAX_BLOCKS blocks of session parameters (plain numbers, hashable)."""
    rng = np.random.default_rng(seed)
    design = library_design()
    blocks = []
    for _ in range(MAX_BLOCKS):
        block = []
        for i in rng.permutation(len(design)):
            shape = design[i]
            densities = [_draw_density(rng, kinds) for kinds in shape["kinds"]]
            while not _inside_box(densities):
                densities = [_draw_density(rng, kinds) for kinds in shape["kinds"]]
            weights = rng.random(shape["packets"]) + 0.2
            weights /= weights.sum()
            block.append(
                {
                    "densities": densities,
                    "n": shape["n"],
                    "quad_order": shape["quad_order"],
                    "packets": [
                        [float(w), float(rng.uniform(0.3, 1.2)), float(rng.uniform(-3.0, 3.0))]
                        for w in weights
                    ],
                    "temperature": float(rng.uniform(0.5, 2.0)),
                    "mass": float(rng.uniform(0.5, 2.0)),
                    "t0": float(rng.uniform(0.0, 5.0)),
                    "v0": float(rng.uniform(-1.0, 1.0)),
                    "p0": float(rng.uniform(-1.0, 1.0)),
                }
            )
        blocks.append(block)
    return blocks


@dataclass
class Session:
    params: dict
    densities: list
    state: object
    purity_in: float
    tp: object
    momentum_grid: object
    velocity_density: object
    galilei: object
    v_grid: np.ndarray
    path: Path


def build_session(mf, params: dict, path: Path) -> Session:
    """Program objects for one session, built before the clock starts."""
    ga, qs, th = mf.group_algebra, mf.quantum_system, mf.thermal
    densities = [
        ga.GroupDensity(
            tuple(
                (w, ga.DiracComponent(a) if kind == "dirac" else ga.GaussianComponent(a, v))
                for w, kind, a, v in comps
            )
        )
        for comps in params["densities"]
    ]
    grid = qs.PositionGrid(params["n"], EXTENT)
    state = qs.PureMixture(
        grid, tuple((w, qs.gaussian_wavepacket(grid, alpha, c)) for w, alpha, c in params["packets"])
    )
    mass, temperature = params["mass"], params["temperature"]
    tp = th.ThermalParameters(th.beta_of_temperature(temperature), mass)
    sd_p = math.sqrt(tp.momentum_variance)
    kt_over_m = tp.constants.k_boltzmann * temperature / mass
    sd_v = math.sqrt(kt_over_m)
    return Session(
        params=params,
        densities=densities,
        state=state,
        purity_in=qs.purity(state),
        tp=tp,
        momentum_grid=th.MomentumGrid(2001, 8.5 * sd_p),
        velocity_density=ga.make_gaussian(params["v0"], kt_over_m),
        galilei=mf.galilei.GalileiParams(mass=mass, time=0.0, hbar=tp.constants.hbar),
        v_grid=params["v0"] + np.linspace(-8.5 * sd_v, 8.5 * sd_v, 2001),
        path=path,
    )


def run_session(mf, s: Session) -> dict:
    """The timed part: one notebook-style pass over the library."""
    ga, qs, th = mf.group_algebra, mf.quantum_system, mf.thermal
    product = s.densities[0]
    for rho in s.densities[1:]:
        product = ga.convolve(product, rho)
    invertible = ga.is_invertible(product, band=BAND, floor=FLOOR)[0]
    out = qs.act_mixed(product, s.state, s.params["quad_order"])
    density = qs.position_density(out)
    purity = qs.purity(out)
    variance = qs.density_variance(density)
    thermal = th.thermal_state(s.tp, s.momentum_grid)
    evolved = th.time_translate_diagonal(thermal, s.params["t0"], s.tp)
    boosted = mf.galilei.boost_mixed(s.velocity_density, s.params["p0"], s.galilei, s.v_grid)
    text = qs.position_density_csv(density)
    mf.textio.write_text_atomic(s.path, text)
    return {
        "product": product, "invertible": invertible, "out": out, "density": density,
        "purity": purity, "variance": variance, "thermal": thermal, "evolved": evolved,
        "boosted": boosted, "text": text,
    }


def check_session(s: Session, r: dict) -> list[str]:
    """Closed-form oracles for one session; returns the failures."""
    bad = []
    p = s.params
    closed = _product_components(p["densities"])
    mean_rho = math.fsum(w * a for w, a, _ in closed)
    var_rho = math.fsum(w * (a * a + v) for w, a, v in closed) - mean_rho**2
    weights = [w for w, _ in r["product"].components]
    if abs(math.fsum(weights) - 1.0) > 1e-12:
        bad.append("product weights do not sum to 1")
    if abs(math.fsum(w for w, _ in r["out"].terms) - 1.0) > 1e-12:
        bad.append("channel weights do not sum to 1")
    comps = r["product"].components
    mean_prod = math.fsum(w * (c.location if hasattr(c, "location") else c.mean) for w, c in comps)
    if abs(mean_prod - mean_rho) > 1e-9 * (1.0 + abs(mean_rho)):
        bad.append(f"product mean {mean_prod} != {mean_rho}")
    if len(comps) == 1 and hasattr(comps[0][1], "location") and not r["invertible"]:
        bad.append("pure product reported non-invertible")
    if r["purity"] > s.purity_in + 1e-9:
        bad.append(f"purity rose from {s.purity_in} to {r['purity']}")
    dx = s.state.grid.spacing
    values = r["density"].values
    if abs(float(np.sum(values)) * dx - 1.0) > 1e-8:
        bad.append("position density does not integrate to 1")
    packets = p["packets"]
    mean_in = math.fsum(w * c for w, _, c in packets)
    var_in = math.fsum(w * (alpha**2 + c**2) for w, alpha, c in packets) - mean_in**2
    if abs(r["variance"] - (var_in + var_rho)) > 1e-5 * (1.0 + var_in + var_rho):
        bad.append(f"output variance {r['variance']} != {var_in + var_rho}")
    mv = s.tp.momentum_variance
    pgrid = s.momentum_grid.points()
    thermal_var = float(np.sum(pgrid**2 * r["thermal"].weights)) * s.momentum_grid.spacing
    if abs(thermal_var - mv) > 1e-9 * mv:
        bad.append(f"thermal variance {thermal_var} != {mv}")
    if float(np.max(np.abs(r["evolved"].weights - r["thermal"].weights))) > 1e-12:
        bad.append("time translation moved a momentum-diagonal state")
    q = r["boosted"].grid.points()
    bw = r["boosted"].weights * r["boosted"].grid.spacing
    boost_mean = float(np.sum(q * bw))
    expected_mean = p["p0"] + p["mass"] * p["v0"]
    if abs(boost_mean - expected_mean) > 1e-9 * (1.0 + abs(expected_mean)):
        bad.append(f"boosted mean {boost_mean} != {expected_mean}")
    boost_var = float(np.sum((q - expected_mean) ** 2 * bw))
    if abs(boost_var - mv) > 1e-9 * mv:
        bad.append(f"boosted variance {boost_var} != {mv}")
    written = s.path.read_bytes()
    if written != r["text"].encode():
        bad.append("exported CSV differs from the text written")
    rows = written.decode().splitlines()
    x = s.state.grid.points()
    if rows[0] != "x,density" or len(rows) != values.size + 1:
        bad.append("exported CSV has the wrong shape")
    else:
        parsed = np.array([[float(cell) for cell in row.split(",")] for row in rows[1:]])
        if not (np.array_equal(parsed[:, 0], x) and np.array_equal(parsed[:, 1], values)):
            bad.append("exported CSV does not round-trip the density")
    return bad


def library_setup(root: Path, seed: int, work: Path):
    """Import the library and build the inputs: what set-up time measures."""
    sys.path.insert(0, str(root / "src"))
    import mixedframes
    import mixedframes.textio  # noqa: F401  (not re-exported by the package)

    blocks = library_inputs(seed)
    first = [build_session(mixedframes, params, work / "session.csv") for params in blocks[0]]
    return mixedframes, blocks, first


def run_library(ctx: Context) -> Outcome:
    mf, blocks, first = library_setup(ctx.root, ctx.seed, ctx.work)
    outcome = Outcome(inputs=blocks)
    spans = tracer.Tracer() if ctx.trace else None

    def run_block(sessions: list[Session], record) -> None:
        """Run, time and check each session; ``record`` takes its time, or None if it failed."""
        for s in sessions:
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                result = run_session(mf, s)
            except Exception as exc:  # every failure of the program counts; none is filtered
                outcome.failed += 1
                outcome.error(f"{type(exc).__name__}: {exc}")
                record(None)
                continue
            elapsed = time.perf_counter() - start
            active = spans is not None and spans.active
            if active:
                spans.active = False
            bad = check_session(s, result)
            del result  # so peak memory is one session's, not two
            if active:
                spans.active = True
            if bad:
                outcome.failed += 1
                for message in bad:
                    outcome.mismatch(message)
            record(None if bad else elapsed)

    if spans is not None:
        # Each session runs untraced and then traced, so both sums see the same machine speed.
        untraced: list[float | None] = []
        traced: list[float | None] = []
        spans.install()
        try:
            for s in first:
                run_block([s], untraced.append)
                spans.active = True
                run_block([s], traced.append)
                spans.active = False
        finally:
            spans.active = False
            spans.uninstall()
        outcome.latencies = [t for t in untraced if t is not None]
        outcome.layers = tracer.layer_metrics(tracer.span_totals(spans.spans), spans.counts)
        outcome.layers["cli.process_overhead_s"] = 0.0
        outcome.layers["trace.spans"] = len(spans.spans)
        _overhead(outcome.layers, sum(outcome.latencies), sum(t for t in traced if t is not None))
        outcome.trace_record = spans.dump()
        return outcome

    start = time.perf_counter()
    sessions = first
    bracket = Bracket(outcome, time_kernel)
    for b in range(MAX_BLOCKS):
        if b > 0:
            if not another_fits(start, b, ctx.seconds):
                break
            sessions = [build_session(mf, params, ctx.work / "session.csv") for params in blocks[b]]
            bracket.restart()
        run_block(sessions, bracket.add)
        bracket.end_block()
    return outcome


WORKLOADS = {"cli": run_cli, "verify": run_verify, "library": run_library}
INPUTS = {"cli": cli_inputs, "verify": verify_inputs, "library": library_inputs}
