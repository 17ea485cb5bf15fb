"""Property-based tests of the component merge and of the periodic quadrature."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from mixedframes import group_algebra as ga
from mixedframes.quantum_system import (
    PositionGrid,
    gaussian_wavepacket,
    position_density,
    pure_state,
    translate,
)

TOL = ga.MERGE_TOL

# Each cluster holds components at two positions: a base point and one that
# differs from it by a near-tie offset in location/mean or in variance. The
# offsets sit on both sides of MERGE_TOL, far from it in ulps, so whether a
# cluster merges never hangs on rounding. Bases lie far apart.
BASES = (-2.5, -0.75, 0.0, 1.25, 3.0)
OFFSETS = (0.0, 0.5 * TOL, 0.99 * TOL, 1.01 * TOL, 1.5 * TOL, 3.0 * TOL)

cluster = st.tuples(
    st.sampled_from(BASES),
    st.sampled_from(("dirac", "gauss_mean", "gauss_var")),
    st.sampled_from((0.09, 0.5, 1.7)),
    st.sampled_from(OFFSETS),
    st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans()), min_size=1, max_size=4),
)


@st.composite
def components(draw):
    # at most one Dirac and one Gaussian cluster per base
    clusters = draw(
        st.lists(cluster, min_size=1, max_size=5, unique_by=lambda c: (c[0], c[1] == "dirac"))
    )
    raw = []
    for base, kind, var, offset, members in clusters:
        for w, shifted in members:
            d = offset if shifted else 0.0
            if kind == "dirac":
                comp = ga.DiracComponent(base + d)
            elif kind == "gauss_mean":
                comp = ga.GaussianComponent(base + d, var)
            else:
                comp = ga.GaussianComponent(base, var + d)
            raw.append((w, comp))
    total = math.fsum(w for w, _ in raw)
    return [(w / total, comp) for w, comp in raw]


@settings(max_examples=100, deadline=None)
@given(components(), st.randoms(use_true_random=False))
def test_canonical_ignores_input_order(comps, rnd):
    shuffled = list(comps)
    rnd.shuffle(shuffled)
    a = ga.GroupDensity(ga._canonical(comps))
    b = ga.GroupDensity(ga._canonical(shuffled))
    # equal keys may be summed in another order, which moves the last bits only
    assert ga.density_gap(a, b) <= 1e-14


# Equal values whose weighted average (w1 a + w2 a) / (w1 + w2) rounds away
# from a: the merged mean must stay a, or the output leaves sorted order.
DRIFT = [
    (0.046511627906976744, ga.DiracComponent(-2.5)),
    (0.18604651162790697, ga.GaussianComponent(-2.5, 0.09 + 1.01 * TOL)),
    (0.023255813953488372, ga.GaussianComponent(-2.5, 0.09)),
    (0.37209302325581395, ga.GaussianComponent(-2.5, 0.09)),
    (0.37209302325581395, ga.GaussianComponent(-2.5, 0.09)),
]


@settings(max_examples=100, deadline=None)
@given(components())
@example(DRIFT)
def test_canonical_is_idempotent(comps):
    once = ga._canonical(comps)
    assert ga._canonical(once) == once


@settings(max_examples=100, deadline=None)
@given(components())
def test_canonical_preserves_total_weight(comps):
    out = ga._canonical(comps)
    total = math.fsum(w for w, _ in comps)
    assert math.fsum(w for w, _ in out) == pytest.approx(total, abs=1e-14)
    assert len(out) <= len(comps)


def test_canonical_merges_just_inside_the_tolerance():
    def pair(offset):
        return [(0.5, ga.DiracComponent(1.0)), (0.5, ga.DiracComponent(1.0 + offset))]

    assert len(ga._canonical(pair(0.99 * TOL))) == 1
    assert len(ga._canonical(pair(1.01 * TOL))) == 2


SEAM_GRID = PositionGrid(1024, 40.0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-20.0, 20.0, exclude_min=True, exclude_max=True),
    st.floats(0.3, 2.0),
)
def test_translated_packet_keeps_its_mass_across_the_seam(a, alpha):
    packet = gaussian_wavepacket(SEAM_GRID, alpha)
    density = position_density(pure_state(translate(packet, a)))
    assert SEAM_GRID.integrate(density.values) == pytest.approx(1.0, abs=1e-12)

