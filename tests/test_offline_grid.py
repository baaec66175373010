"""The offline grid script: one run_experiment per grid row, gold echo scores 1.0."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_offline_grid.py"


@pytest.fixture()
def grid():
    spec = importlib.util.spec_from_file_location("run_offline_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gold_echo_grid_scores_perfectly_with_a_manifest_per_row(grid, monkeypatch, capsys):
    out_dirs = []
    run_experiment = grid.run_experiment

    def checked(config):
        report = run_experiment(config)
        assert report.macro_f1 == 1.0
        assert (config.out_dir / "manifest.json").is_file()
        out_dirs.append(config.out_dir)
        return report

    monkeypatch.setattr(grid, "run_experiment", checked)
    assert grid.main(["--mock", "gold_echo"]) == 0
    assert len(set(out_dirs)) == len(grid.GRID)
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(grid.GRID) and all(row.endswith("1.000") for row in rows)


def test_gold_echo_grid_fails_below_perfect_score(grid, monkeypatch):
    run_experiment = grid.run_experiment
    monkeypatch.setattr(
        grid, "run_experiment", lambda config: dataclasses.replace(run_experiment(config), macro_f1=0.5)
    )
    assert grid.main(["--mock", "gold_echo"]) == 1
