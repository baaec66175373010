"""The offline grid script: one run_experiment per grid row, gold echo scores 1.0,
title-kNN rows replay their embeddings from a packed store, every shipped config is a row."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from atc_icl.config import load_run_config
from atc_icl.gateway import ResponseStore
from atc_icl.selection import SelectionStrategy

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_offline_grid.py"


@pytest.fixture()
def grid():
    spec = importlib.util.spec_from_file_location("run_offline_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gold_echo_grid_scores_perfectly_with_a_manifest_per_row(grid, monkeypatch, capsys):
    out_dirs, seeds = [], set()
    run_experiment = grid.run_experiment

    def checked(config):
        seeds.add(config.icl.run_seed)
        report = run_experiment(config)
        assert report.macro_f1 == 1.0
        manifest = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
        if config.icl.strategy is SelectionStrategy.KNN_TITLE:
            assert manifest["backend_tags_used"] == ["mock", "replay"]
            store = ResponseStore(config.backend.store_dir)
            assert store.embedding_pack_path("hash-embed-8").is_file()
        out_dirs.append(config.out_dir)
        return report

    monkeypatch.setattr(grid, "run_experiment", checked)
    assert grid.main(["--mock", "gold_echo"]) == 0
    assert len(set(out_dirs)) == len(grid.GRID)
    assert seeds == {17}  # the --seed default, not the rows' own
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(grid.GRID) and all(row.endswith("1.000") for row in rows)


def test_gold_echo_grid_fails_below_perfect_score(grid, monkeypatch):
    run_experiment = grid.run_experiment
    monkeypatch.setattr(
        grid, "run_experiment", lambda config: dataclasses.replace(run_experiment(config), macro_f1=0.5)
    )
    assert grid.main(["--mock", "gold_echo"]) == 1


def test_every_shipped_config_is_a_grid_row(grid):
    configs = sorted((ROOT / "configs").glob("*.yaml"))
    assert len(configs) == 7
    rows = [dataclasses.replace(icl, run_seed=0) for icl in grid.GRID]
    for path in configs:
        assert dataclasses.replace(load_run_config(path).icl, run_seed=0) in rows, path
    assert len(rows) == len(set(rows)) == len(configs) + 3
