"""The benchmark's names for program functions must resolve.

``perfbench/tracer.py`` skips a target that does not resolve without an
error, so a renamed or deleted function would silently drop out of the
per-layer metrics. ``perfbench/selftest.py`` also names the bindings it
expects wrapped and the calls it counts in ``verify``; that self-test is
run by hand, so a missing name would otherwise surface late. The tracer
also keeps its own copy of ``verify.CHECKS``' names, and a check missing
there would drop out of the per-layer metrics. These tests make each case
a failure instead.
"""

import importlib
import sys
from pathlib import Path

from conftest import verify_checks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def _unresolved(names):
    """The ``module.attr`` names that are not callables of a loaded mixedframes module."""
    import mixedframes.cli  # noqa: F401  (loads every module the CLI binds)

    return [
        name
        for name in names
        if not callable(getattr(sys.modules.get(f"mixedframes.{name.split('.')[0]}"),
                                name.split(".")[1], None))
    ]


def test_every_tracer_target_resolves():
    missing = _unresolved(f"{module}.{attr}" for module, attr, _, _ in _load("tracer").TARGETS)
    assert not missing, f"tracer targets that do not resolve: {missing}"


def test_every_selftest_binding_and_counted_call_resolves():
    selftest = _load("selftest")
    names = [*selftest.IMPORTED_BINDINGS, *selftest.EXPECTED_VERIFY_CALLS]
    missing = _unresolved(names)
    assert not missing, f"self-test names that do not resolve: {missing}"


def test_tracer_times_the_checks_of_the_table_in_order():
    assert list(_load("tracer").VERIFY_CHECKS) == verify_checks()


def test_components_keep_the_shape_the_library_session_reads():
    """``perfbench/workloads.py`` builds densities from ``DiracComponent(a)`` and
    ``GaussianComponent(m, v)`` and reads ``.components`` as ``(weight, component)``
    pairs. ``check_session`` tells a Dirac by ``hasattr(c, "location")``, so a
    Gaussian that gained ``location`` would be read as a point mass."""
    from mixedframes import group_algebra as ga

    dirac, gauss = ga.DiracComponent(0.25), ga.GaussianComponent(-1.5, 0.5)
    assert dirac.location == 0.25
    assert (gauss.mean, gauss.variance) == (-1.5, 0.5)
    assert not hasattr(gauss, "location")
    pairs = ga.GroupDensity(((0.5, dirac), (0.5, gauss))).components
    assert pairs == ((0.5, dirac), (0.5, gauss))


def test_library_sessions_at_n_1024_pass_the_session_checks(tmp_path):
    """The n = 1024 sessions of the first ``library`` block (seed 1) run through the
    benchmark's own ``run_session`` and ``check_session``, so a change that breaks the
    session contract fails here, not only in a benchmark run."""
    import mixedframes
    import mixedframes.textio  # noqa: F401  (run_session writes through it)

    workloads = _load("workloads")
    block = [params for params in workloads.library_inputs(1)[0] if params["n"] == 1024]
    assert block
    for params in block:
        session = workloads.build_session(mixedframes, params, tmp_path / "session.csv")
        assert workloads.check_session(session, workloads.run_session(mixedframes, session)) == []
