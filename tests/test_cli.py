"""CLI subcommands: stats, embed, run (dry-run, resume), eval, export."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from atc_icl.cli import main
from atc_icl.config import config_digest, load_run_config
from atc_icl.errors import AtcError
from atc_icl.synth import SPLIT_FILE_NAME


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(path: Path, corpus_dir: Path, out_dir: Path, **overrides) -> Path:
    icl = {
        "strategy": "knn_len",
        "k": 3,
        "n": 3,
        "info": True,
        "essay": True,
        "fts": False,
        "mode": "all_at_once",
        "model": "gpt-4",
        "run_seed": 17,
    }
    icl.update(overrides.pop("icl", {}))
    backend = {"chat": "mock", "mock_mode": "gold_echo"}
    backend.update(overrides.pop("backend", {}))
    config = {
        "corpus_dir": str(corpus_dir),
        "split_file": str(corpus_dir / SPLIT_FILE_NAME),
        "out_dir": str(out_dir),
        "icl": icl,
        "backend": backend,
    }
    lines = [f"corpus_dir: {config['corpus_dir']}", f"split_file: {config['split_file']}",
             f"out_dir: {config['out_dir']}", "icl:"]
    lines += [f"  {key}: {json.dumps(value)}" for key, value in icl.items()]
    lines.append("backend:")
    lines += [f"  {key}: {json.dumps(value)}" for key, value in backend.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_stats_prints_and_writes_json(runner, small_dir, tmp_path):
    json_out = tmp_path / "stats.json"
    result = runner.invoke(
        main,
        ["stats", str(small_dir), str(small_dir / SPLIT_FILE_NAME), "--json-out", str(json_out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "Essays" in result.output and "Major Claims" in result.output
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["essays"] == 12
    assert payload["components_total"] == payload["components"]["MajorClaim"] + \
        payload["components"]["Claim"] + payload["components"]["Premise"]


def test_stats_train_scope(runner, small_dir):
    result = runner.invoke(
        main,
        ["stats", str(small_dir), str(small_dir / SPLIT_FILE_NAME), "--scope", "train"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "Essays             8" in result.output


def test_stats_missing_corpus_errors(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    split = tmp_path / "split.csv"
    split.write_text('"ID";"SET"\n', encoding="utf-8")
    result = runner.invoke(main, ["stats", str(empty), str(split)])
    assert result.exit_code != 0


def test_run_gold_echo_end_to_end(runner, small_dir, tmp_path):
    out_dir = tmp_path / "run1"
    config = write_config(tmp_path / "run.yaml", small_dir, out_dir)
    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "info + essay + 3NN^len + 3Ens" in result.output

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["macro_f1"] == 1.0
    assert report["run_label"] == "info + essay + 3NN^len + 3Ens"

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend_tags_used"] == ["mock"]
    assert manifest["run_label"] == report["run_label"]
    assert manifest["config_digest"] == report["config_digest"]
    records = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(records) == 4  # test split of the small corpus
    assert manifest["essay_ids"] == sorted(json.loads(line)["essay_id"] for line in records)


def test_run_dry_run_writes_nothing(runner, small_dir, tmp_path):
    out_dir = tmp_path / "run-dry"
    config = write_config(tmp_path / "dry.yaml", small_dir, out_dir)
    result = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "essays to run:   4" in result.output
    assert "chat requests:   ~12" in result.output  # 4 essays x 3 rounds
    assert not (out_dir / "records.jsonl").exists()


def test_run_resumes_after_interrupt(runner, small_dir, tmp_path):
    full_dir = tmp_path / "full"
    config = write_config(tmp_path / "full.yaml", small_dir, full_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    full_records = (full_dir / "records.jsonl").read_text(encoding="utf-8")

    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    # Simulate an interrupted run: keep only the first recorded essay.
    (resumed_dir / "records.jsonl").write_text(
        full_records.splitlines()[0] + "\n", encoding="utf-8"
    )
    config2 = write_config(tmp_path / "resume.yaml", small_dir, resumed_dir)
    result = runner.invoke(main, ["run", "--config", str(config2)], catch_exceptions=False)
    assert result.exit_code == 0
    assert (resumed_dir / "records.jsonl").read_text(encoding="utf-8") == full_records
    assert (resumed_dir / "report.json").read_text(encoding="utf-8") == (
        full_dir / "report.json"
    ).read_text(encoding="utf-8")


def test_run_rerun_skips_all_and_keeps_report(runner, small_dir, tmp_path):
    out_dir = tmp_path / "rerun"
    config = write_config(tmp_path / "rerun.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    records_before = (out_dir / "records.jsonl").read_bytes()
    report_before = (out_dir / "report.json").read_bytes()
    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    assert (out_dir / "records.jsonl").read_bytes() == records_before
    assert (out_dir / "report.json").read_bytes() == report_before


def test_run_nonstandard_grid_is_flagged(runner, small_dir, tmp_path):
    out_dir = tmp_path / "nonstd"
    config = write_config(tmp_path / "nonstd.yaml", small_dir, out_dir, icl={"k": 2, "n": 1})
    result = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "outside the standard grid" in result.output


def test_run_constant_premise_mock(runner, small_dir, small_corpus, tmp_path):
    out_dir = tmp_path / "constant"
    config = write_config(
        tmp_path / "constant.yaml", small_dir, out_dir,
        backend={"chat": "mock", "mock_mode": "constant", "mock_constant_label": "Premise"},
    )
    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    premise_total = sum(
        1 for essay in small_corpus.test_essays() for c in essay.components
    )
    premise_gold = sum(
        1
        for essay in small_corpus.test_essays()
        for c in essay.components
        if c.gold_label.value == "Premise"
    )
    # Hand-derived all-Premise metrics: recall 1, precision = gold share.
    precision = premise_gold / premise_total
    expected_macro = (2 * precision / (precision + 1)) / 3
    assert report["macro_f1"] == pytest.approx(expected_macro, abs=1e-9)


def test_eval_command_matches_run_report(runner, small_dir, tmp_path):
    out_dir = tmp_path / "run-eval"
    config = write_config(tmp_path / "runeval.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    json_out = tmp_path / "eval.json"
    result = runner.invoke(
        main,
        ["eval", str(out_dir / "records.jsonl"), str(small_dir), str(small_dir / SPLIT_FILE_NAME),
         "--json-out", str(json_out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    evaluated = json.loads(json_out.read_text(encoding="utf-8"))
    run_report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert evaluated["macro_f1"] == run_report["macro_f1"]
    assert evaluated["per_label"] == run_report["per_label"]


def test_export_command(runner, small_dir, tmp_path):
    out = tmp_path / "train.jsonl"
    result = runner.invoke(
        main,
        ["export", str(small_dir), str(small_dir / SPLIT_FILE_NAME),
         "--split", "train", "--featxt", "--out", str(out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    count = int(result.output.split()[1])
    assert len(out.read_text(encoding="utf-8").splitlines()) == count
    assert "Is the AC first in its paragraph" in out.read_text(encoding="utf-8")


def test_embed_command_cache_idempotency(runner, small_dir, tmp_path):
    store = tmp_path / "store"
    config_path = tmp_path / "embed.yaml"
    config_path.write_text(
        textwrap.dedent(
            f"""
            corpus_dir: {small_dir}
            split_file: {small_dir / SPLIT_FILE_NAME}
            out_dir: {tmp_path / 'out'}
            icl: {{strategy: knn_title, k: 3, n: 3}}
            backend:
              chat: mock
              embedding: cache
              embedding_upstream: hash
              store_dir: {store}
            """
        ),
        encoding="utf-8",
    )
    first = runner.invoke(main, ["embed", "--config", str(config_path)], catch_exceptions=False)
    assert first.exit_code == 0
    assert "embedded 12 titles (0 live fetches, 0 cache hits, 12 replay/mock)" in first.output
    second = runner.invoke(main, ["embed", "--config", str(config_path)], catch_exceptions=False)
    assert "embedded 12 titles (0 live fetches, 12 cache hits, 0 replay/mock)" in second.output


def test_embed_replay_without_fixtures_fails(runner, small_dir, tmp_path):
    config_path = tmp_path / "replay.yaml"
    config_path.write_text(
        textwrap.dedent(
            f"""
            corpus_dir: {small_dir}
            split_file: {small_dir / SPLIT_FILE_NAME}
            out_dir: {tmp_path / 'out'}
            icl: {{strategy: knn_title, k: 3, n: 3}}
            backend:
              chat: mock
              embedding: replay
              store_dir: {tmp_path / 'empty-store'}
            """
        ),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["embed", "--config", str(config_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, Exception)


@pytest.mark.parametrize("cut", ["first_byte", "middle", "before_newline"])
def test_run_resumes_after_torn_tail(runner, small_dir, tmp_path, cut):
    full_dir = tmp_path / "full"
    runner.invoke(main, ["run", "--config", str(write_config(tmp_path / "full.yaml", small_dir, full_dir))],
                  catch_exceptions=False)
    full_records = (full_dir / "records.jsonl").read_bytes()

    # Simulate a run killed while writing its last record.
    last_start = full_records.rstrip(b"\n").rfind(b"\n") + 1
    last_length = len(full_records) - 1 - last_start
    keep = {"first_byte": 1, "middle": last_length // 2, "before_newline": last_length}[cut]
    torn = full_records[: last_start + keep]
    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    records_path = resumed_dir / "records.jsonl"
    records_path.write_bytes(torn)
    config = write_config(tmp_path / "resume.yaml", small_dir, resumed_dir)

    # Dry runs and eval read the complete records only and never truncate.
    dry = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    assert "essays to run:   1 (of 4 test essays)" in dry.output
    evaluated = runner.invoke(main, ["eval", str(records_path), str(small_dir), str(small_dir / SPLIT_FILE_NAME)],
                              catch_exceptions=False)
    assert evaluated.exit_code == 0
    assert records_path.read_bytes() == torn

    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    assert f"warning: {records_path}: dropped {keep} bytes" in result.stderr
    assert records_path.read_bytes() == full_records
    assert (resumed_dir / "report.json").read_bytes() == (full_dir / "report.json").read_bytes()


def test_run_rejects_undecodable_record_line(runner, small_dir, tmp_path):
    out_dir = tmp_path / "bad"
    config = write_config(tmp_path / "bad.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    first_line = (out_dir / "records.jsonl").read_bytes().split(b"\n")[0]
    (out_dir / "records.jsonl").write_bytes(first_line + b"\nnot json\n")
    for args in (["run", "--config", str(config)], ["run", "--config", str(config), "--dry-run"]):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, AtcError)
        assert f"{out_dir / 'records.jsonl'}, line 2" in str(result.exception)


def test_run_refuses_to_resume_under_another_config(runner, small_dir, tmp_path):
    out_dir = tmp_path / "shared"
    first = write_config(tmp_path / "k3.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(first)], catch_exceptions=False)
    recorded_digest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["config_digest"]
    before = {name: (out_dir / name).read_bytes() for name in ("records.jsonl", "report.json", "manifest.json")}

    second = write_config(tmp_path / "k1.yaml", small_dir, out_dir, icl={"k": 1})
    new_digest = config_digest(load_run_config(second).icl)
    assert new_digest != recorded_digest
    for args in (["run", "--config", str(second)], ["run", "--config", str(second), "--dry-run"]):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, AtcError)
        assert recorded_digest in str(result.exception) and new_digest in str(result.exception)
    assert {name: (out_dir / name).read_bytes() for name in before} == before


def test_records_split_on_newlines_only(runner, small_dir, tmp_path):
    out_dir = tmp_path / "separators"
    config = write_config(tmp_path / "separators.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    records_path = out_dir / "records.jsonl"
    # Raw response texts are kept unescaped; U+2028 inside one is not a line break.
    first = json.loads(records_path.read_text(encoding="utf-8").splitlines()[0])
    first["responses"][0][0] += " \x85"
    lines = records_path.read_text(encoding="utf-8").split("\n")
    lines[0] = json.dumps(first, sort_keys=True, ensure_ascii=False)
    records_path.write_text("\n".join(lines), encoding="utf-8")
    result = runner.invoke(main, ["eval", str(records_path), str(small_dir), str(small_dir / SPLIT_FILE_NAME)],
                           catch_exceptions=False)
    assert result.exit_code == 0
    assert "macro F1: 1.0000" in result.output
