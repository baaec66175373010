"""CLI subcommands: stats, embed, run (dry-run, resume), eval, export."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from atc_icl import cli, gateway
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
    assert result.output.startswith("Corpus statistics (train):\n")
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
    assert "outside the standard grid (k in {3,5}, n in {1,3,5})" in result.output


def test_run_constant_premise_mock(runner, small_dir, small_corpus, tmp_path):
    out_dir = tmp_path / "constant"
    config = write_config(
        tmp_path / "constant.yaml", small_dir, out_dir,
        backend={"chat": "mock", "mock_mode": "constant"},
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


def test_embed_command_packs_the_titles_next_to_rows_already_packed(runner, small_dir, small_corpus, tmp_path):
    store_dir = tmp_path / "store"
    model = gateway.HashEmbeddingBackend().model_name
    store = gateway.ResponseStore(store_dir)
    earlier = gateway.embedding_digest(model, "A title from another corpus")
    store.put_embedding(earlier, model, "A title from another corpus", [1.0] * 8)
    assert store.put_embedding_pack(model, [earlier])
    config_path = write_config(tmp_path / "embed.yaml", small_dir, tmp_path / "out",
                               backend={"embedding": "cache", "embedding_upstream": "hash",
                                        "store_dir": str(store_dir)})
    runner.invoke(main, ["embed", "--config", str(config_path)], catch_exceptions=False)
    pack = store.embedding_pack_path(model)
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    titles = [gateway.embedding_digest(model, essay.title) for essay in small_corpus.essays]
    assert header == {"digests": [earlier, *titles], "dim": 8, "model_name": model}
    written = pack.stat().st_mtime_ns, pack.read_bytes()
    runner.invoke(main, ["embed", "--config", str(config_path)], catch_exceptions=False)
    assert (pack.stat().st_mtime_ns, pack.read_bytes()) == written


def test_embed_packs_a_legacy_store_as_a_recording_would(runner, small_dir, small_corpus, tmp_path, monkeypatch):
    """A store of records written before vectors were packed, and no pack, goes through ``atc-icl embed``."""
    model = gateway.HashEmbeddingBackend().model_name
    recorded, legacy = tmp_path / "recorded", tmp_path / "legacy"
    record_config = write_config(tmp_path / "record.yaml", small_dir, tmp_path / "record-out",
                                 backend={"embedding": "cache", "embedding_upstream": "hash",
                                          "store_dir": str(recorded)})
    runner.invoke(main, ["embed", "--config", str(record_config)], catch_exceptions=False)
    recorded_store = gateway.ResponseStore(recorded)
    (legacy / "embed").mkdir(parents=True)
    for path in (recorded / "embed").glob("*.json"):
        fields = json.loads(path.read_text(encoding="utf-8"))
        vector = list(recorded_store.get_embedding(path.stem))
        legacy_record = {"model_name": fields["model_name"], "text": fields["text"], "vector": vector}
        (legacy / "embed" / path.name).write_text(json.dumps(legacy_record, indent=2), encoding="utf-8")
    assert len(list((legacy / "embed").iterdir())) == len(small_corpus.essays)

    def replay_config(name, store_dir):
        return write_config(tmp_path / f"{name}.yaml", small_dir, tmp_path / f"{name}-out",
                            icl={"strategy": "knn_title"},
                            backend={"embedding": "replay", "embedding_model": model, "store_dir": str(store_dir)})

    result = runner.invoke(main, ["embed", "--config", str(replay_config("legacy-embed", legacy))],
                           catch_exceptions=False)
    assert "embedded 12 titles (0 live fetches, 0 cache hits, 12 replay/mock)" in result.output
    pack = gateway.ResponseStore(legacy).embedding_pack_path(model)
    assert pack.read_bytes() == recorded_store.embedding_pack_path(model).read_bytes()

    runner.invoke(main, ["run", "--config", str(replay_config("recorded", recorded))], catch_exceptions=False)
    record_reads, row_reads = [], []
    read, row = gateway.ResponseStore._read, gateway._EmbeddingPack.row
    monkeypatch.setattr(gateway.ResponseStore, "_read",
                        lambda self, kind, digest: record_reads.append(kind) or read(self, kind, digest))
    monkeypatch.setattr(gateway._EmbeddingPack, "row",
                        lambda self, offset: row_reads.append(offset) or row(self, offset))
    runner.invoke(main, ["run", "--config", str(replay_config("legacy", legacy))], catch_exceptions=False)
    records = [(tmp_path / f"{name}-out" / "records.jsonl").read_bytes() for name in ("recorded", "legacy")]
    assert records[0] == records[1]
    manifest = json.loads((tmp_path / "legacy-out" / "manifest.json").read_text(encoding="utf-8"))
    assert "embed" not in record_reads  # every title, pool and query alike, came from a pack row
    assert len(row_reads) == manifest["embed_calls"] > 0


def test_replay_reads_the_embeddings_its_cache_twin_recorded(runner, small_dir, tmp_path, monkeypatch):
    """Changing only ``embedding: cache`` to ``replay`` finds every title ``atc-icl embed`` recorded."""
    def config(name, embedding):
        return write_config(tmp_path / f"{name}.yaml", small_dir, tmp_path / f"{name}-out",
                            icl={"strategy": "knn_title"},
                            backend={"embedding": embedding, "embedding_upstream": "hash",
                                     "store_dir": str(tmp_path / "store")})

    cached = config("cache", "cache")
    runner.invoke(main, ["embed", "--config", str(cached)], catch_exceptions=False)
    runner.invoke(main, ["run", "--config", str(cached)], catch_exceptions=False)
    for upstream in ("HashEmbeddingBackend", "LiveEmbeddingBackend"):
        monkeypatch.setattr(cli, upstream, None)  # a replay builds no upstream
    result = runner.invoke(main, ["run", "--config", str(config("replay", "replay"))], catch_exceptions=False)
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "replay-out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend_tags_used"] == ["mock", "replay"]
    records = [(tmp_path / f"{name}-out" / "records.jsonl").read_bytes() for name in ("cache", "replay")]
    assert records[0] == records[1]


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


def test_dry_run_embedding_calls_match_the_real_run(runner, small_dir, small_corpus, tmp_path):
    out_dir = tmp_path / "knn-title"
    config = write_config(tmp_path / "title.yaml", small_dir, out_dir,
                          icl={"strategy": "knn_title", "n": 5}, backend={"embedding": "hash"})
    dry = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    pool, queries = small_corpus.train_essays(), small_corpus.test_essays()
    titles = {e.title for e in [*pool, *queries]}
    expected = len(queries) * (len(pool) + 1)
    assert f"embedding calls: {expected} ({len(titles)} distinct titles)" in dry.output

    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["embed_calls"] == expected

    rerun = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    assert "embedding calls: 0 (0 distinct titles)" in rerun.output


def test_run_stopped_before_its_first_manifest_is_still_checked(runner, small_dir, tmp_path, monkeypatch):
    full_dir = tmp_path / "full"
    runner.invoke(main, ["run", "--config", str(write_config(tmp_path / "full.yaml", small_dir, full_dir))],
                  catch_exceptions=False)

    out_dir = tmp_path / "stopped"
    first = write_config(tmp_path / "k3.yaml", small_dir, out_dir)
    real_run_ensemble = cli.run_ensemble
    started = []

    def dies_on_second_essay(query, *args, **kwargs):
        if started:
            raise RuntimeError("chat backend went away")
        started.append(query.essay_id)
        return real_run_ensemble(query, *args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", dies_on_second_essay)
    stopped = runner.invoke(main, ["run", "--config", str(first)])
    assert isinstance(stopped.exception, RuntimeError)
    monkeypatch.undo()
    assert len((out_dir / "records.jsonl").read_bytes().splitlines()) == 1
    recorded_digest = config_digest(load_run_config(first).icl)
    stub = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert stub.keys() == {"config_digest", "chat_calls", "embed_calls", "wall_clock_seconds"}
    assert (stub["config_digest"], stub["chat_calls"], stub["embed_calls"]) == (recorded_digest, 3, 0)

    second = write_config(tmp_path / "k1.yaml", small_dir, out_dir, icl={"k": 1})
    new_digest = config_digest(load_run_config(second).icl)
    for args in (["run", "--config", str(second)], ["run", "--config", str(second), "--dry-run"]):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, AtcError)
        assert recorded_digest in str(result.exception) and new_digest in str(result.exception)

    resumed = runner.invoke(main, ["run", "--config", str(first)], catch_exceptions=False)
    assert resumed.exit_code == 0
    for name in ("records.jsonl", "report.json"):
        assert (out_dir / name).read_bytes() == (full_dir / name).read_bytes()


class TornFile:
    """A file whose first write stores half its text, then fails as a full disk would."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(28, "No space left on device")


def test_a_manifest_write_that_fails_partway_keeps_the_previous_one(runner, small_dir, tmp_path, monkeypatch):
    full_dir = tmp_path / "full"
    runner.invoke(main, ["run", "--config", str(write_config(tmp_path / "full.yaml", small_dir, full_dir))],
                  catch_exceptions=False)

    out_dir = tmp_path / "stopped"
    config = write_config(tmp_path / "stopped.yaml", small_dir, out_dir)
    real_run_ensemble = cli.run_ensemble
    started, tear = [], []

    def dies_on_second_essay(query, *args, **kwargs):
        if started:
            tear.append(query.essay_id)  # the manifest write this failure triggers fails too
            raise RuntimeError("chat backend went away")
        started.append(query.essay_id)
        return real_run_ensemble(query, *args, **kwargs)

    def open_tearing_the_manifest(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        return TornFile(handle) if tear and Path(path).name.startswith("manifest.json") else handle

    monkeypatch.setattr(cli, "run_ensemble", dies_on_second_essay)
    monkeypatch.setattr(gateway, "open", open_tearing_the_manifest, raising=False)
    stopped = runner.invoke(main, ["run", "--config", str(config)])
    monkeypatch.undo()
    assert isinstance(stopped.exception, OSError) and tear
    digest = config_digest(load_run_config(config).icl)
    previous = json.dumps({"config_digest": digest}, indent=2) + "\n"
    assert (out_dir / "manifest.json").read_text(encoding="utf-8") == previous
    assert sorted(path.name for path in out_dir.iterdir()) == ["manifest.json", "records.jsonl"]

    assert runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False).exit_code == 0
    resumed = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert resumed.exit_code == 0
    for name in ("records.jsonl", "report.json", "report.txt"):
        assert (out_dir / name).read_bytes() == (full_dir / name).read_bytes()


def test_manifest_counts_add_up_across_resumes(runner, small_dir, tmp_path, monkeypatch):
    def run(out_dir):
        config = write_config(tmp_path / f"{out_dir.name}.yaml", small_dir, out_dir,
                              icl={"strategy": "knn_title"}, backend={"embedding": "hash"})
        return runner.invoke(main, ["run", "--config", str(config)])

    def manifest(out_dir):
        return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))

    full_dir = tmp_path / "full"
    assert run(full_dir).exit_code == 0

    # The chat backend goes away on the second essay, once its titles are ranked:
    # the first essay takes 3 rounds and gold echo never retries.
    real_make_gateway = cli.make_gateway
    answered = []

    def make_gateway(config, corpus=None):
        gateway = real_make_gateway(config, corpus)
        real_complete = gateway.chat_backend.complete

        def complete(request):
            if len(answered) == 3:
                raise RuntimeError("chat backend went away")
            answered.append(request)
            return real_complete(request)

        gateway.chat_backend.complete = complete
        return gateway

    stopped_dir = tmp_path / "stopped"
    monkeypatch.setattr(cli, "make_gateway", make_gateway)
    assert isinstance(run(stopped_dir).exception, RuntimeError)
    monkeypatch.undo()
    assert len((stopped_dir / "records.jsonl").read_bytes().splitlines()) == 1
    stub = manifest(stopped_dir)
    assert (stub["chat_calls"], stub["embed_calls"]) == (3, 9)  # one essay: 3 rounds, pool of 8 + 1

    assert run(stopped_dir).exit_code == 0
    resumed, full = manifest(stopped_dir), manifest(full_dir)
    assert (resumed["chat_calls"], resumed["embed_calls"]) == (full["chat_calls"], full["embed_calls"]) == (12, 36)
    assert resumed["wall_clock_seconds"] >= stub["wall_clock_seconds"]
    assert (stopped_dir / "records.jsonl").read_bytes() == (full_dir / "records.jsonl").read_bytes()

    # A rerun with nothing left to do keeps the counts.
    assert run(stopped_dir).exit_code == 0
    assert (manifest(stopped_dir)["chat_calls"], manifest(stopped_dir)["embed_calls"]) == (12, 36)


SIGTERM_ON_SECOND_ESSAY = """
import os, signal, sys
from atc_icl import cli

real_run_ensemble, started = cli.run_ensemble, []

def run_ensemble(query, *args, **kwargs):
    if started:
        os.kill(os.getpid(), signal.SIGTERM)
    started.append(query.essay_id)
    return real_run_ensemble(query, *args, **kwargs)

cli.run_ensemble = run_ensemble
sys.argv = ["atc-icl", "run", "--config", sys.argv[1]]
cli.entrypoint()
"""


def test_sigterm_keeps_the_session_counts_in_the_manifest(runner, small_dir, tmp_path):
    def config(out_dir):
        return write_config(tmp_path / f"{out_dir.name}.yaml", small_dir, out_dir,
                            icl={"strategy": "knn_title"}, backend={"embedding": "hash"})

    def manifest(out_dir):
        return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))

    full_dir, stopped_dir = tmp_path / "full", tmp_path / "stopped"
    assert runner.invoke(main, ["run", "--config", str(config(full_dir))]).exit_code == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    stopped = subprocess.run([sys.executable, "-c", SIGTERM_ON_SECOND_ESSAY, str(config(stopped_dir))],
                             env=env, capture_output=True, text=True, timeout=120)
    assert stopped.returncode == 143, stopped.stderr
    assert len((stopped_dir / "records.jsonl").read_bytes().splitlines()) == 1
    assert (manifest(stopped_dir)["chat_calls"], manifest(stopped_dir)["embed_calls"]) == (3, 9)

    assert runner.invoke(main, ["run", "--config", str(config(stopped_dir))]).exit_code == 0
    counts = [(manifest(d)["chat_calls"], manifest(d)["embed_calls"]) for d in (stopped_dir, full_dir)]
    assert counts[0] == counts[1] == (12, 36)
    assert (stopped_dir / "records.jsonl").read_bytes() == (full_dir / "records.jsonl").read_bytes()


@pytest.fixture(scope="module")
def finished_run(small_dir, tmp_path_factory):
    """Records and report of an uninterrupted 4-essay gold-echo run."""
    root = tmp_path_factory.mktemp("finished")
    config = write_config(root / "full.yaml", small_dir, root / "full")
    CliRunner().invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    return tuple((root / "full" / name).read_bytes() for name in ("records.jsonl", "report.json"))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_run_resumes_after_a_cut_at_any_byte(small_dir, finished_run, data):
    records, report = finished_run
    cut = data.draw(st.integers(0, len(records)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "resumed"
        out_dir.mkdir()
        (out_dir / "records.jsonl").write_bytes(records[:cut])
        config = write_config(Path(tmp) / "resume.yaml", small_dir, out_dir)
        result = CliRunner().invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
        assert result.exit_code == 0
        assert (out_dir / "records.jsonl").read_bytes() == records
        assert (out_dir / "report.json").read_bytes() == report
