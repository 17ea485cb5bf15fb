"""The benchmark tracer's targets must name real functions.

``perfbench/tracer.py`` skips a target that does not resolve without an
error, so a renamed or deleted function would silently drop out of the
per-layer metrics. This test makes that a failure instead.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_tracer_target_resolves():
    import mixedframes.cli  # noqa: F401  (loads every module the CLI binds)

    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in _load_tracer().TARGETS
        if not callable(getattr(sys.modules.get(f"mixedframes.{module}"), attr, None))
    ]
    assert not missing, f"tracer targets that do not resolve: {missing}"
