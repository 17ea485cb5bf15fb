from pathlib import Path

import numpy as np
import pytest

from mixedframes.cli import DEFAULTS
from mixedframes.figures import FIGURE_IDS, build_demo, build_figure
from mixedframes.textio import columns_csv, write_text_atomic

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_default_figures_match_committed_fixtures(figure_id):
    artifact = build_figure(figure_id, dict(DEFAULTS))
    for filename, content in artifact.files:
        fixture = (FIXTURE_DIR / filename).read_text()
        assert content == fixture, f"{filename} drifted from the committed fixture"


def test_metadata_echoes_every_parameter():
    artifact = build_figure("gaussian-smear", dict(DEFAULTS))
    for key in DEFAULTS:
        assert f"param_{key}" in artifact.metadata
    assert artifact.metadata["tool_version"]


def test_gnuplot_script_references_csv():
    artifact = build_figure("a1a2", dict(DEFAULTS))
    gp = dict(artifact.files)["a1a2.gp"]
    assert "a1a2.csv" in gp
    assert "plot" in gp


def test_demo_artifacts_are_deterministic():
    params = dict(DEFAULTS)
    first = build_demo("semigroup", params)
    second = build_demo("semigroup", params)
    assert first.files == second.files


def test_unknown_ids_rejected():
    with pytest.raises(ValueError):
        build_figure("fig9", dict(DEFAULTS))
    with pytest.raises(ValueError):
        build_demo("nope", dict(DEFAULTS))


def test_failed_atomic_write_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "x\udcff")  # a lone surrogate has no encoding
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]


def test_columns_csv_rejects_a_header_of_another_length():
    with pytest.raises(ValueError, match="same length"):
        columns_csv(["x"], [np.zeros(2), np.ones(2)])
