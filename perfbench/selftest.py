"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- BENCHMARK.json names exactly the metrics run.py and tracer.py report;
- the same seed reproduces a workload's input hash and another seed changes it;
- the names that modules import from each other (``verify.bch_residual``,
  ``cli.run_checks`` and so on) are wrapped, not only the defining module's;
- the wrappers change no result: a traced library block returns the same
  values as an untraced one, and a traced ``figure`` run matches the fixtures;
- traced ``verify`` runs at both grids give these exact counts, twice over:
  36 ``galilei.expm`` and 36 ``galilei.bch_residual`` calls, 10
  ``galilei.build_operators`` calls and one call of each ``verify.check_*``.
  These are the counts of the current BCH oracle; a change to the oracle
  changes them on purpose.

The two default-grid ``verify`` runs make it take a few minutes. It exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import tracer
import workloads

EXPECTED_VERIFY_CALLS = {
    "galilei.expm": 36,
    "galilei.bch_residual": 36,
    "galilei.build_operators": 10,
    **{f"verify.{name}": 1 for name in tracer.VERIFY_CHECKS},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        raise SystemExit(1)
    print(f"ok   {message}")


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layers == dict(tracer.per_layer_spec()), "BENCHMARK.json per_layer matches tracer.per_layer_spec()")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "BENCHMARK.json workloads")


def check_hashes() -> None:
    for name, generate in workloads.INPUTS.items():
        first, again, other = (workloads.input_hash(generate(seed)) for seed in (1, 1, 2))
        check(first == again and first != other, f"{name}: seed 1 repeats its input hash, seed 2 changes it")


# Names that modules import from another module; each binding must be wrapped.
IMPORTED_BINDINGS = (
    "verify.bch_residual", "verify.build_operators", "verify.build_figure", "verify.boost_mixed",
    "figures.boost_mixed", "figures.csv_table", "galilei.expm", "cli.build_figure",
    "cli.build_demo", "cli.run_checks", "cli.write_artifact",
)


def check_bindings() -> None:
    import mixedframes.cli  # noqa: F401  (loads every module the CLI binds)

    spans = tracer.Tracer()
    spans.install()
    try:
        modules = {name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("mixedframes.")}
        unwrapped = [b for b in IMPORTED_BINDINGS
                     if not hasattr(getattr(modules[b.split(".")[0]], b.split(".")[1]), "__wrapped__")]
    finally:
        spans.uninstall()
    check(not unwrapped, "every imported binding is wrapped" + (f" (not: {unwrapped})" if unwrapped else ""))


def check_wrappers_transparent(work: Path) -> None:
    mf, blocks, sessions = workloads.library_setup(run.ROOT, 3, work)
    sessions = sessions[:6]
    plain = [workloads.run_session(mf, s) for s in sessions]
    spans = tracer.Tracer()
    spans.install()
    spans.active = True
    try:
        traced = [workloads.run_session(mf, s) for s in sessions]
    finally:
        spans.active = False
        spans.uninstall()
    same = all(
        a["purity"] == b["purity"]
        and a["text"] == b["text"]
        and np.array_equal(a["boosted"].weights, b["boosted"].weights)
        and a["product"] == b["product"]
        for a, b in zip(plain, traced)
    )
    check(same and len(spans.spans) > 0, "traced library sessions return the untraced results")

    ctx = workloads.Context(run.ROOT, work, 0, 0.0, True)
    out_dir = work / "figure"
    proc, _ = workloads._run(workloads._driver(work / "t.json", 0, ["figure", "a1a2", "--out", str(out_dir)]), ctx)
    outcome = workloads.Outcome(inputs=None)
    fixtures = {k: v for k, v in workloads._fixtures(run.ROOT).items() if k.startswith("a1a2.")}
    check(proc.returncode == 0 and workloads._check_fixtures(out_dir, fixtures, outcome, "traced figure"),
          "traced `figure a1a2` matches tests/fixtures")


def check_verify_counts(work: Path) -> None:
    ctx = workloads.Context(run.ROOT, work, 0, 0.0, True)
    for argv in (["verify", "--grid-n", "256"], ["verify"]):
        seen = []
        for repeat in range(2):
            trace_path = work / "trace.json"
            out_dir = work / f"verify-{repeat}"
            proc, _ = workloads._run(workloads._driver(trace_path, repeat, argv + ["--out", str(out_dir)]), ctx)
            check(proc.returncode == 0, f"traced `{' '.join(argv)}` exits 0")
            calls = tracer.calls_by_request(json.loads(trace_path.read_text())["spans"])[repeat]
            wrong = {name: calls.get(name, 0) for name, expected in EXPECTED_VERIFY_CALLS.items()
                     if calls.get(name, 0) != expected}
            check(not wrong, f"`{' '.join(argv)}` run {repeat}: expected call counts"
                  + (f" (wrong: {wrong})" if wrong else ""))
            seen.append(dict(calls))
        check(seen[0] == seen[1], f"`{' '.join(argv)}`: every span count repeats exactly")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    out_root = run.ROOT / run.OUTPUT_DIR
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        check_names()
        check_hashes()
        check_wrappers_transparent(work)
        check_bindings()
        check_verify_counts(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
