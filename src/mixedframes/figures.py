"""Figure and demo artifact builders for the command-line interface.

Every artifact is a set of deterministic text files (CSV curves, a gnuplot
script, JSON metadata). The displayed closed forms place translated peaks
at +shift while the channel convention ``psi(x + a)`` places them at -a,
so the builders negate the group-density parameter once, here, and the
emitted curves match the closed forms of :mod:`mixedframes.analytic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import analytic
from . import group_algebra as ga
from . import quantum_system as qs
from . import thermal as th
from .galilei import GalileiParams, boost_mixed
from .textio import columns_csv, csv_table, fmt, write_metadata, write_text_atomic

FIGURE_IDS = ("a1a2", "a1a2diff", "gaussian-smear")
DEMO_IDS = ("thermal", "galilei-boost", "semigroup")

DEMO_MOMENTUM_POINTS = 2001
DEMO_ENERGY_POINTS = 2000


@dataclass(frozen=True)
class Artifact:
    """Named set of output files: (filename, content) pairs plus metadata."""

    name: str
    files: tuple[tuple[str, str], ...]
    metadata: dict


def write_artifact(artifact: Artifact, out_dir: Path) -> list[Path]:
    out_dir = Path(out_dir)
    written = []
    for filename, content in artifact.files:
        path = out_dir / filename
        write_text_atomic(path, content)
        written.append(path)
    meta_path = out_dir / f"{artifact.name}.json"
    write_metadata(meta_path, artifact.metadata)
    written.append(meta_path)
    return written


def _gnuplot_script(name: str, labels: list[str]) -> str:
    plots = ", ".join(
        f"'{name}.csv' using 1:{i + 2} with lines title '{label}'"
        for i, label in enumerate(labels)
    )
    return (
        f"# gnuplot script for {name}\n"
        "set datafile separator ','\n"
        "set xlabel 'x'\n"
        "set ylabel 'density'\n"
        "set key top right\n"
        f"plot {plots}\n"
    )


def _figure_files(name: str, x, curves, metadata) -> Artifact:
    labels = [label for label, _ in curves]
    files = (
        (f"{name}.csv", columns_csv(["x"] + labels, [x] + [values for _, values in curves])),
        (f"{name}.gp", _gnuplot_script(name, labels)),
    )
    return Artifact(name=name, files=files, metadata=metadata)


def _echo(params: dict, command: str, target: str) -> dict:
    meta = {f"param_{k}": v for k, v in params.items()}
    meta["command"] = command
    meta["target"] = target
    meta["tool_version"] = __version__
    return meta


def build_figure(figure_id: str, params: dict) -> Artifact:
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    grid = qs.PositionGrid(params["grid_n"], params["extent"])
    x = grid.points()
    alpha = params["alpha"]
    quad_order = params["quad_order"]
    name = figure_id
    metadata = _echo(params, "figure", figure_id)

    if figure_id in ("a1a2", "a1a2diff"):
        a2 = params["a2"]
        sign = +1 if figure_id == "a1a2" else -1
        packet = qs.gaussian_wavepacket(grid, alpha)
        rho = ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(-a2))])
        mixed = qs.position_density(qs.act_mixed(rho, qs.pure_state(packet), quad_order))
        pure_psi = qs.two_gaussian_superposition(grid, alpha, a2, sign)
        pure = qs.position_density(qs.pure_state(pure_psi))

        mixed_ref = analytic.two_point_mixed_density(x, alpha, a2)
        pure_ref = analytic.superposition_density(x, alpha, a2, sign)
        i_mid = int(np.argmin(np.abs(x - a2 / 2.0)))
        pure_label = "pure_sum" if sign == +1 else "pure_diff"
        curves = [("mixed", mixed.values), (pure_label, pure.values)]
        metadata.update(
            {
                "sup_error_mixed": float(np.max(np.abs(mixed.values - mixed_ref))),
                "sup_error_pure": float(np.max(np.abs(pure.values - pure_ref))),
                "midpoint_x": float(x[i_mid]),
                "midpoint_mixed": float(mixed.values[i_mid]),
                "midpoint_pure": float(pure.values[i_mid]),
            }
        )
        return _figure_files(name, x, curves, metadata)

    sigma = params["sigma"]
    a0 = params["a0"]
    packet = qs.gaussian_wavepacket(grid, alpha)
    rho = ga.make_gaussian(-a0, sigma**2)
    mixed = qs.position_density(qs.act_mixed(rho, qs.pure_state(packet), quad_order))
    coherent = qs.coherently_translated(ga.GaussianComponent(-a0, sigma**2), packet, quad_order)
    pure = qs.position_density(qs.pure_state(coherent))

    mixed_ref = analytic.smeared_mixture_density(x, alpha, sigma, a0)
    pure_ref = analytic.smeared_pure_density(x, alpha, sigma, a0)
    curves = [
        ("mixed", mixed.values),
        ("mixed_analytic", mixed_ref),
        ("pure", pure.values),
        ("pure_analytic", pure_ref),
    ]
    metadata.update(
        {
            "sup_error_mixed": float(np.max(np.abs(mixed.values - mixed_ref))),
            "sup_error_pure": float(np.max(np.abs(pure.values - pure_ref))),
            "variance_mixed": qs.density_variance(mixed),
            "variance_mixed_expected": sigma**2 + alpha**2,
            "variance_pure": qs.density_variance(pure),
            "variance_pure_expected": (sigma**2 + 2.0 * alpha**2) / 2.0,
        }
    )
    return _figure_files(name, x, curves, metadata)


def build_demo(
    demo_id: str, params: dict, extra_densities: list[ga.GroupDensity] | None = None
) -> Artifact:
    if demo_id not in DEMO_IDS:
        raise ValueError(f"unknown demo id {demo_id!r}")
    if demo_id == "thermal":
        return _demo_thermal(params)
    if demo_id == "galilei-boost":
        return _demo_galilei_boost(params)
    return _demo_semigroup(params, extra_densities or [])


def _demo_thermal(params: dict) -> Artifact:
    temperature = params["temperature"]
    mass = params["mass"]
    constants = th.NATURAL_UNITS
    beta = th.beta_of_temperature(temperature, constants)
    tp = th.ThermalParameters(beta, mass, constants)

    sd = math.sqrt(tp.momentum_variance)
    grid = th.MomentumGrid(DEMO_MOMENTUM_POINTS, 8.5 * sd)
    state = th.thermal_state(tp, grid)
    p = grid.points()
    mb = th.maxwell_boltzmann_density(p, temperature, mass, constants)
    mb_gap = float(np.max(np.abs(th.momentum_smearing_density(tp, p) - mb)))

    e_scale = constants.hbar / beta
    e_grid = np.linspace(12.0 * e_scale / DEMO_ENERGY_POINTS, 12.0 * e_scale, DEMO_ENERGY_POINTS)
    e_density = th.energy_smearing_density(tp, e_grid)

    metadata = _echo(params, "demo", "thermal")
    metadata.update(
        {
            "beta": beta,
            "momentum_variance": tp.momentum_variance,
            "maxwell_boltzmann_gap": mb_gap,
        }
    )
    overlay = columns_csv(["p", "weight", "maxwell_boltzmann"], [p, state.weights, mb])
    files = (
        ("thermal_momentum.csv", th.momentum_mixture_csv(state)),
        ("thermal_energy.csv", th.energy_density_csv(e_grid, e_density)),
        ("thermal_overlay.csv", overlay),
    )
    return Artifact(name="thermal", files=files, metadata=metadata)


def _demo_galilei_boost(params: dict) -> Artifact:
    temperature = params["temperature"]
    mass = params["mass"]
    v0 = params["v0"]
    p0 = params["p"]
    constants = th.NATURAL_UNITS
    beta = th.beta_of_temperature(temperature, constants)
    tp = th.ThermalParameters(beta, mass, constants)
    gp = GalileiParams(mass=mass, time=0.0, hbar=constants.hbar)

    sd_v = math.sqrt(constants.k_boltzmann * temperature / mass)
    rho = ga.make_gaussian(v0, constants.k_boltzmann * temperature / mass)
    v_grid = v0 + np.linspace(-8.5 * sd_v, 8.5 * sd_v, DEMO_MOMENTUM_POINTS)
    boosted = boost_mixed(rho, p0, gp, v_grid)

    q = boosted.grid.points()
    p_prime = p0 + mass * v0
    reference = th.maxwell_boltzmann_density(q - p_prime, temperature, mass, constants)
    reference = reference / (float(np.sum(reference)) * boosted.grid.spacing)
    gap = float(np.max(np.abs(boosted.weights - reference)))

    metadata = _echo(params, "demo", "galilei-boost")
    metadata.update(
        {
            "beta": beta,
            "p_prime": p_prime,
            "thermal_reference_gap": gap,
        }
    )
    overlay = columns_csv(["p", "weight", "thermal_reference"], [q, boosted.weights, reference])
    files = (
        ("galilei_boost.csv", th.momentum_mixture_csv(boosted)),
        ("galilei_boost_overlay.csv", overlay),
    )
    return Artifact(name="galilei_boost", files=files, metadata=metadata)


def _density_label(rho: ga.GroupDensity) -> str:
    """One-line component form, CSV-safe (no commas)."""
    return "; ".join(to_line for to_line in ga.to_text(rho).strip().splitlines())


def _default_band(rho: ga.GroupDensity) -> float:
    """Dual-variable window wide enough to expose zeros or Gaussian decay."""
    locs = sorted(
        c.location for _, c in rho.components if isinstance(c, ga.DiracComponent)
    )
    gaps = [b - a for a, b in zip(locs, locs[1:]) if b - a > 1e-9]
    scales = []
    if gaps:
        scales.append(min(gaps))
    variances = [
        c.variance for _, c in rho.components if isinstance(c, ga.GaussianComponent)
    ]
    if variances:
        scales.append(math.sqrt(min(variances)))
    if not scales:
        return 10.0
    return 10.0 / min(scales)


def _demo_semigroup(params: dict, extra_densities: list[ga.GroupDensity]) -> Artifact:
    a2 = params["a2"]
    a0 = params["a0"]
    two_point = ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(a2))])
    cases = [
        ("delta_product", ga.make_delta(a0), ga.make_delta(a2)),
        ("identity", ga.make_delta(0.0), two_point),
        ("two_point_antipode", two_point, ga.antipode(two_point)),
        ("gaussian_product", ga.make_gaussian(1.0, 0.25), ga.make_gaussian(-1.0, 0.75)),
        ("delta_gaussian", ga.make_delta(a0), ga.make_gaussian(0.0, 1.0)),
    ]
    for i, rho in enumerate(extra_densities):
        cases.append((f"loaded_{i}_antipode", rho, ga.antipode(rho)))
    header = ["case", "lhs", "rhs", "product", "product_pure", "product_invertible", "witness_p"]
    rows = []
    for label, lhs, rhs in cases:
        product = ga.convolve(lhs, rhs)
        invertible, witness = ga.is_invertible(product, band=_default_band(product), floor=1e-3)
        rows.append(
            [
                label,
                _density_label(lhs),
                _density_label(rhs),
                _density_label(product),
                str(ga.is_pure(product)).lower(),
                str(invertible).lower(),
                "" if witness is None else fmt(witness),
            ]
        )
    metadata = _echo(params, "demo", "semigroup")
    metadata["cases"] = [row[0] for row in rows]
    files = (("semigroup.csv", csv_table(header, rows)),)
    return Artifact(name="semigroup", files=files, metadata=metadata)
