"""Spans and counts around the public functions of ``mixedframes``.

The tracer is installed from outside ``src/``: it replaces every binding of
a target function in the loaded ``mixedframes`` modules (the defining module
and every module that imported the name, such as ``verify.bch_residual`` or
``figures.csv_table``) with a wrapper that records a span and calls the
original unchanged. A span is ``[name, start, end, parent, request]``;
spans are kept in memory and written out when the run ends. A layer's self
time is its span time minus the time of its child spans.

This module uses the standard library only, so the subprocess driver can
import it before ``mixedframes`` without disturbing the import profile.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

PACKAGE = "mixedframes"


VERIFY_CHECKS = (
    "check_semigroup_laws",
    "check_antipode_inverse",
    "check_bialgebra_consistency",
    "check_invertibility_classifier",
    "check_channel_density_convolution",
    "check_purity_channel_law",
    "check_purity_dense_oracle",
    "check_channel_composition",
    "check_state_normalization",
    "check_localization_inequality",
    "check_figures",
    "check_thermal_densities",
    "check_thermal_invariance",
    "check_galilei_operators",
    "check_bch_sweep",
    "check_boost_label_phase",
    "check_thermal_boost",
    "check_boost_composition",
)

# (module, attribute, counter names, counter). The counter maps (args,
# kwargs, result) to one value per name; ``galilei.expm`` is scipy's
# function as bound in galilei.
TARGETS = (
    ("galilei", "expm", ("n3_computed",), lambda a, k, r: (float(a[0].shape[0]) ** 3,)),
    ("galilei", "bch_residual", (), None),
    ("galilei", "build_operators", (), None),
    ("galilei", "commutator_residuals", (), None),
    ("galilei", "boost_mixed", (), None),
    ("quantum_system", "translate", ("fft_flops_computed",),
     lambda a, k, r: (10.0 * a[0].grid.n_points * math.log2(a[0].grid.n_points),)),
    ("quantum_system", "act_mixed", ("terms_out",), lambda a, k, r: (len(r.terms),)),
    ("quantum_system", "purity", ("gram_flops_computed",),
     lambda a, k, r: (8.0 * len(a[0].terms) ** 2 * a[0].grid.n_points,)),
    ("quantum_system", "position_density", (), None),
    ("quantum_system", "coherently_translated", (), None),
    ("quantum_system", "density_variance", (), None),
    ("group_algebra", "convolve", (), None),
    ("group_algebra", "mix", (), None),
    ("group_algebra", "_canonical", ("components_in", "components_out"),
     lambda a, k, r: (len(a[0]), len(r))),
    ("group_algebra", "is_invertible", (), None),
    ("group_algebra", "evaluate", (), None),
    ("group_algebra", "densities_close", (), None),
    ("thermal", "thermal_state", (), None),
    ("thermal", "momentum_smearing_density", (), None),
    ("thermal", "time_translate_diagonal", (), None),
    ("textio", "csv_table", ("bytes",), lambda a, k, r: (len(r.encode()),)),
    ("textio", "write_text_atomic", ("bytes",),
     lambda a, k, r: (len((a[1] if len(a) > 1 else k["text"]).encode()),)),
    ("figures", "build_figure", (), None),
    ("figures", "build_demo", (), None),
    ("figures", "write_artifact", (), None),
    *(("verify", name, (), None) for name in VERIFY_CHECKS),
    ("verify", "run_checks", (), None),
    ("cli", "main", (), None),
)

# Functions whose first argument may be a one-shot iterable: the wrapper
# materialises it so the count and the original call see the same items.
_MATERIALISE_FIRST = {"group_algebra._canonical"}

IMPORT_METRICS = (
    "import.total_s",
    "import.numpy_s",
    "import.scipy_s",
    "import.scipy.integrate_s",
    "import.scipy.optimize_s",
    "import.scipy.linalg_s",
    "import.mixedframes_self_s",
)
_SCIPY_PARTS = ("scipy.integrate", "scipy.optimize", "scipy.linalg")

# Spans reported as inclusive time (``.s``) rather than calls and self time.
_INCLUSIVE = {f"verify.{name}" for name in VERIFY_CHECKS} | {"verify.run_checks", "cli.main"}


def _unit(counter_name: str) -> str:
    if counter_name == "bytes":
        return "B"
    return "flop" if counter_name.endswith("flops_computed") else "count"


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    spec = [(name, "s") for name in IMPORT_METRICS]
    for module, attr, names, _ in TARGETS:
        span = f"{module}.{attr}"
        if span in _INCLUSIVE:
            spec.append((f"{span}.s", "s"))
            continue
        spec.append((f"{span}.calls", "count"))
        spec.append((f"{span}.self_s", "s"))
        spec.extend((f"{span}.{c}", _unit(c)) for c in names)
        if span == "group_algebra._canonical":
            spec.append((f"{span}.merge_ratio", "ratio"))
    spec += [
        ("cli.process_overhead_s", "s"),
        ("trace.spans", "count"),
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return spec


class Tracer:
    """Records spans and counts while ``active``; installed by rebinding names."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr, names, counter in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            span = f"{module_name}.{attr}"
            wrapper = self._wrap(span, original, names, counter, span in _MATERIALISE_FIRST)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter_names, counter, materialise_first):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if materialise_first:
                args = (list(args[0]),) + args[1:]
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in zip(counter_names, counter(args, kwargs, result)):
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[i]
    return totals


def calls_by_request(spans: list[list]) -> dict[object, dict[str, int]]:
    out: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, _, _, _, request in spans:
        out[request][name] += 1
    return out


def layer_metrics(totals: dict[str, dict[str, float]], counts: dict[str, float]) -> dict[str, float]:
    """Span totals and counts under the per-layer metric names (0 when unseen)."""
    out: dict[str, float] = {}
    for module, attr, names, _ in TARGETS:
        span = f"{module}.{attr}"
        entry = totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if span in _INCLUSIVE:
            out[f"{span}.s"] = entry["total_s"]
            continue
        out[f"{span}.calls"] = entry["calls"]
        out[f"{span}.self_s"] = entry["self_s"]
        for c in names:
            out[f"{span}.{c}"] = counts.get(f"{span}.{c}", 0.0)
    comps_in = counts.get("group_algebra._canonical.components_in", 0.0)
    comps_out = counts.get("group_algebra._canonical.components_out", 0.0)
    out["group_algebra._canonical.merge_ratio"] = comps_out / comps_in if comps_in else 0.0
    return out


BEGIN_MARK = "perfbench: import begin"
END_MARK = "perfbench: import end"


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds by package from ``-X importtime`` output between the marks.

    Each entry is charged to the outermost package, other than mixedframes,
    on its import chain, so numpy submodules that scipy pulls in count as
    scipy. Within scipy, an entry is charged to the innermost of
    scipy.integrate / scipy.optimize / scipy.linalg that encloses it, so
    those three do not overlap.
    """
    lines = stderr.split(BEGIN_MARK, 1)[-1].split(END_MARK, 1)[0].splitlines()
    pending: dict[int, list] = defaultdict(list)
    for line in lines:
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum_us, field = line.split("|", 2)
        level = (len(field) - len(field.lstrip()) - 1) // 2
        node = (field.strip(), int(head.split(":", 1)[1]), int(cum_us), pending.pop(level + 1, []))
        pending[level].append(node)
    roots = pending.get(0, [])
    out = {name: 0.0 for name in IMPORT_METRICS}
    out["import.total_s"] = sum(node[2] for node in roots) / 1e6

    def walk(node, owner, part):
        name, self_us, _, children = node
        if owner is None and name.split(".")[0] != PACKAGE:
            owner = name.split(".")[0]
        for prefix in _SCIPY_PARTS:
            if name == prefix or name.startswith(prefix + "."):
                part = prefix
        seconds = self_us / 1e6
        if owner is None:
            out["import.mixedframes_self_s"] += seconds
        elif owner in ("numpy", "scipy"):
            out[f"import.{owner}_s"] += seconds
            if owner == "scipy" and part is not None:
                out[f"import.{part}_s"] += seconds
        for child in children:
            walk(child, owner, part)

    for root in roots:
        walk(root, None, None)
    return out
