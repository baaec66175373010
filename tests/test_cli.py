"""CLI subcommands: stats, embed, run (dry-run, resume), eval, export."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from atc_icl import cli, gateway, prompting, selection
from atc_icl.cli import main
from atc_icl.config import config_digest, load_run_config
from atc_icl.corpus import Label, load_corpus
from atc_icl.errors import AtcError
from atc_icl.gateway import Usage
from atc_icl.synth import SPLIT_FILE_NAME
from conftest import CONTEXT_RECORD_HEAD, inline_chat_records


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
    store.put_embedding(model, "A title from another corpus", [1.0] * 8)
    assert store.put_embedding_pack(model, [earlier])
    config_path = write_config(tmp_path / "embed.yaml", small_dir, tmp_path / "out",
                               backend={"embedding": "cache", "embedding_upstream": "hash",
                                        "store_dir": str(store_dir)})
    runner.invoke(main, ["embed", "--config", str(config_path)], catch_exceptions=False)
    pack = store.embedding_pack_path(model)
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    titles = [gateway.embedding_digest(model, essay.title) for essay in small_corpus.essays]
    assert header == {"digests": [earlier, *titles], "dim": 8, "distances": True, "model_name": model}
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
    record_reads, row_reads, scored = [], [], []
    read, row, cosine = gateway.ResponseStore._read, gateway._EmbeddingPack.row, selection.cosine_similarity
    monkeypatch.setattr(gateway.ResponseStore, "_read",
                        lambda self, kind, digest: record_reads.append(kind) or read(self, kind, digest))
    monkeypatch.setattr(gateway._EmbeddingPack, "row",
                        lambda self, index: row_reads.append(self.digests[index]) or row(self, index))
    monkeypatch.setattr(selection, "cosine_similarity",
                        lambda vector, query: scored.append(vector.source_text_digest) or cosine(vector, query))
    runner.invoke(main, ["run", "--config", str(replay_config("legacy", legacy))], catch_exceptions=False)
    records = [(tmp_path / f"{name}-out" / "records.jsonl").read_bytes() for name in ("recorded", "legacy")]
    assert records[0] == records[1]
    manifest = json.loads((tmp_path / "legacy-out" / "manifest.json").read_text(encoding="utf-8"))
    assert "embed" not in record_reads  # every title, pool and query alike, came from the pack
    # The pool's distances come from the pack's distance block; rows are read
    # only for each query and for the candidates scored exactly.
    queries = [gateway.embedding_digest(model, essay.title) for essay in small_corpus.test_essays()]
    assert sorted(row_reads) == sorted(queries + scored)
    assert len(queries) < len(row_reads) < manifest["embed_calls"]


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



def test_a_repeated_record_is_refused_by_eval_and_by_a_resume(runner, small_dir, tmp_path):
    out_dir = tmp_path / "repeated"
    config = write_config(tmp_path / "repeated.yaml", small_dir, out_dir)
    runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    records_path = out_dir / "records.jsonl"
    lines = records_path.read_bytes().split(b"\n")
    records_path.write_bytes(b"\n".join([lines[0], lines[1], lines[0], b""]))
    essay_id = json.loads(lines[0])["essay_id"]
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    for args in (["eval", str(records_path), str(small_dir), str(small_dir / SPLIT_FILE_NAME)],
                 ["run", "--config", str(config)], ["run", "--config", str(config), "--dry-run"]):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, AtcError)
        assert str(result.exception) == (f"{records_path}, line 3: a second record for essay {essay_id},"
                                         " whose first is on line 1")
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def retitle(corpus_dir: Path, essay_id: str, title: str) -> None:
    """Give an essay of ``corpus_dir`` another title, shifting its annotation offsets to match."""
    txt, ann = corpus_dir / f"{essay_id}.txt", corpus_dir / f"{essay_id}.ann"
    old, body = txt.read_text(encoding="utf-8").split("\n", 1)
    txt.write_text(f"{title}\n{body}", encoding="utf-8")
    shift, lines = len(title) - len(old), []
    for line in ann.read_text(encoding="utf-8").splitlines():
        if line.startswith("T"):
            tid, span, surface = line.split("\t")
            label, start, end = span.split()
            line = f"{tid}\t{label} {int(start) + shift} {int(end) + shift}\t{surface}"
        lines.append(line)
    ann.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("chat", [{}, {"chat": "live", "base_url": "http://api.example.test/v1"}],
                         ids=["gold-echo", "live"])
def test_embed_wires_no_chat_backend(runner, small_dir, small_corpus, tmp_path, monkeypatch, chat):
    """``atc-icl embed`` builds neither the gold-echo mock, which refuses two essays of one title, nor a live session."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(small_dir, corpus_dir)
    retitle(corpus_dir, "essay002", small_corpus.by_id()["essay001"].title)
    store_dir = tmp_path / "store"
    config = write_config(tmp_path / "embed.yaml", corpus_dir, tmp_path / "out",
                          backend={**chat, "embedding": "cache", "embedding_upstream": "hash",
                                   "store_dir": str(store_dir)})
    monkeypatch.setattr(cli, "HttpSession", None)  # building one would fail
    result = runner.invoke(main, ["embed", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert "embedded 12 titles (0 live fetches, 1 cache hits, 11 replay/mock)" in result.output
    model = gateway.HashEmbeddingBackend().model_name
    header = json.loads(gateway.ResponseStore(store_dir).embedding_pack_path(model).read_bytes().split(b"\n", 1)[0])
    assert len(header["digests"]) == 11 and header["distances"] is True


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
@pytest.mark.parametrize("chat", [{"chat": "mock"}, {"chat": "cache", "cache_upstream": "mock", "store_dir": "store"}],
                         ids=["mock", "cache-over-mock"])
def test_gold_echo_refuses_two_essays_of_one_title(small_dir, tmp_path, monkeypatch, capfd, chat, dry_run):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(small_dir, corpus_dir)
    title = (corpus_dir / "essay001.txt").read_text(encoding="utf-8").split("\n", 1)[0]
    retitle(corpus_dir, "essay002", title)
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "run.yaml", corpus_dir, out_dir, backend=chat)
    monkeypatch.setattr(sys, "argv", ["atc-icl", "run", "--config", str(config), *(["--dry-run"] if dry_run else [])])
    monkeypatch.setattr(cli.signal, "signal", lambda *args: None)  # the test process keeps its SIGTERM handler
    monkeypatch.setattr(cli, "HttpSession", None)  # no mock run builds a session
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 1
    assert capfd.readouterr() == ("", f"error: essays essay001 and essay002 share the title {title!r},"
                                      " so gold_echo cannot tell their prompts apart\n")
    assert not out_dir.exists() and not (tmp_path / "store").exists()

    # The constant mock does not look essays up by title.
    write_config(tmp_path / "run.yaml", corpus_dir, out_dir, backend={**chat, "mock_mode": "constant"})
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 0
    assert ("chat requests:" if dry_run else "Run ") in capfd.readouterr().out


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


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_a_pool_smaller_than_the_neighborhood_is_refused_before_any_work(runner, small_dir, tmp_path, dry_run):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "k5.yaml", small_dir, out_dir, icl={"k": 5})
    result = runner.invoke(main, ["run", "--config", str(config), *(["--dry-run"] if dry_run else [])])
    assert isinstance(result.exception, AtcError)
    message = str(result.exception)
    assert str(small_dir / SPLIT_FILE_NAME) in message
    assert "8 train essays" in message and "k = 5" in message and "neighborhood of 10" in message
    assert not out_dir.exists()


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
@pytest.mark.parametrize("case", ["no-test-essay", "no-component"])
def test_a_test_split_with_nothing_to_evaluate_is_refused_before_any_work(runner, small_dir, small_corpus, tmp_path,
                                                                          case, dry_run):
    corpus_dir, out_dir = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(small_dir, corpus_dir)
    split_file = corpus_dir / SPLIT_FILE_NAME
    if case == "no-test-essay":
        split_file.write_text("".join(f'"{e.essay_id}";"TRAIN"\n' for e in small_corpus.essays), encoding="utf-8")
    else:
        for essay in small_corpus.test_essays():
            (corpus_dir / f"{essay.essay_id}.ann").write_text("", encoding="utf-8")
    config = write_config(tmp_path / "run.yaml", corpus_dir, out_dir)
    result = runner.invoke(main, ["run", "--config", str(config), *(["--dry-run"] if dry_run else [])])
    assert isinstance(result.exception, AtcError)
    assert str(result.exception) == f"{split_file} lists no test essay with an argument component: nothing to evaluate"
    assert not out_dir.exists()


def test_a_base_url_without_a_scheme_is_refused_before_any_work(runner, small_dir, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "run.yaml", small_dir, out_dir,
                          backend={"chat": "live", "base_url": "localhost:9/v1"})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert isinstance(result.exception, AtcError)
    assert str(result.exception) == (f"{config}: backend.base_url must be an absolute http:// or https:// URL"
                                     " with a host, not 'localhost:9/v1'; it takes no user info, query or fragment")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["cache", "replay", "embed"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_a_store_dir_that_is_no_directory_is_refused_before_any_work(runner, small_dir, tmp_path, command, under):
    blocker = tmp_path / "store"
    blocker.write_text("not a directory\n", encoding="utf-8")
    store_dir = blocker / "chat" if under else blocker
    backend = {"cache": {"chat": "cache", "cache_upstream": "mock"}, "replay": {"chat": "replay"},
               "embed": {"embedding": "cache", "embedding_upstream": "hash"}}[command]
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "run.yaml", small_dir, out_dir, backend={**backend, "store_dir": str(store_dir)})
    result = runner.invoke(main, ["embed" if command == "embed" else "run", "--config", str(config)])
    assert isinstance(result.exception, AtcError)
    assert str(result.exception) == f"backend.store_dir {store_dir} cannot hold a store: {blocker} is not a directory"
    assert not out_dir.exists()
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_a_pool_exactly_the_neighborhood_runs(runner, small_dir, tmp_path):
    config = write_config(tmp_path / "k4.yaml", small_dir, tmp_path / "out", icl={"k": 4})
    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "macro F1: 1.0000" in result.output


@pytest.mark.parametrize("mode", ["all_at_once", "one_by_one"])
def test_an_essay_without_components_asks_nothing(runner, small_dir, small_corpus, tmp_path, mode):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(small_dir, corpus_dir)
    empty = small_corpus.test_essays()[0]
    (corpus_dir / f"{empty.essay_id}.ann").write_text("", encoding="utf-8")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "run.yaml", corpus_dir, out_dir, icl={"mode": mode})
    dry = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
    result = runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    others = [e for e in small_corpus.test_essays() if e is not empty]
    assert manifest["chat_calls"] == 3 * sum(e.m if mode == "one_by_one" else 1 for e in others)  # 3 rounds
    assert f"chat requests:   ~{manifest['chat_calls']} " in dry.output
    records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()]
    (record,) = [r for r in records if r["essay_id"] == empty.essay_id]
    assert (record["rounds"], record["final"], record["responses"]) == ([[]] * 3, [], [[]] * 3)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["all_at_once", "one_by_one"]))
def test_the_dry_run_counts_the_chat_calls_of_a_gold_echo_run(small_dir, data, mode):
    """Whatever number of components, 0 to m, each test essay keeps; one keeps some, so that there is a report."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as root:
        corpus_dir, out_dir = Path(root) / "corpus", Path(root) / "out"
        shutil.copytree(small_dir, corpus_dir)
        for i, essay in enumerate(load_corpus(small_dir, small_dir / SPLIT_FILE_NAME).test_essays()):
            kept = data.draw(st.integers(min_value=1 if i == 0 else 0, max_value=essay.m), label=essay.essay_id)
            lines = (corpus_dir / f"{essay.essay_id}.ann").read_text(encoding="utf-8").splitlines(keepends=True)
            entities = [line for line in lines if line.startswith("T")]
            (corpus_dir / f"{essay.essay_id}.ann").write_text("".join(entities[:kept]), encoding="utf-8")
        config = write_config(Path(root) / "run.yaml", corpus_dir, out_dir, icl={"mode": mode})
        dry = runner.invoke(main, ["run", "--config", str(config), "--dry-run"], catch_exceptions=False)
        assert runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False).exit_code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert f"chat requests:   ~{manifest['chat_calls']} (excluding parse retries)" in dry.output


def test_a_cache_title_run_leaves_its_titles_packed(runner, small_dir, small_corpus, tmp_path):
    """Packed as ``atc-icl embed`` packs them, so that its replay ranks from the distance block."""
    def config(name, **backend):
        return write_config(tmp_path / f"{name}.yaml", small_dir, tmp_path / name, icl={"strategy": "knn_title"},
                            backend={"embedding_upstream": "hash", "store_dir": str(tmp_path / "store"), **backend})

    cached = config("cached", embedding="cache")
    assert runner.invoke(main, ["run", "--config", str(cached)], catch_exceptions=False).exit_code == 0
    model = gateway.HashEmbeddingBackend().model_name
    pack = gateway.ResponseStore(tmp_path / "store").embedding_pack_path(model)
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    titles = [gateway.embedding_digest(model, essay.title) for essay in small_corpus.essays]
    assert header == {"digests": titles, "dim": 8, "distances": True, "model_name": model}
    written = pack.stat().st_mtime_ns, pack.read_bytes()
    runner.invoke(main, ["embed", "--config", str(cached)], catch_exceptions=False)
    shutil.rmtree(tmp_path / "cached")
    runner.invoke(main, ["run", "--config", str(cached)], catch_exceptions=False)  # a rerun over its own pack
    assert (pack.stat().st_mtime_ns, pack.read_bytes()) == written
    runner.invoke(main, ["run", "--config", str(config("replayed", embedding="replay"))], catch_exceptions=False)
    runner.invoke(main, ["run", "--config", str(config("hashed", embedding="hash"))], catch_exceptions=False)
    records = [(tmp_path / name / "records.jsonl").read_bytes() for name in ("cached", "replayed", "hashed")]
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("case", ["replay", "knn_len", "krn", "failed"])
def test_no_other_run_packs(runner, small_dir, tmp_path, case):
    store = tmp_path / "store"
    icl = {"strategy": "knn_title"}
    backend = {"embedding": "cache", "embedding_upstream": "hash", "store_dir": str(store)}
    if case == "replay":
        first = write_config(tmp_path / "first.yaml", small_dir, tmp_path / "first", icl=icl, backend=backend)
        runner.invoke(main, ["run", "--config", str(first)], catch_exceptions=False)
        for pack in (store / "embed").glob("pack-*.f64"):
            pack.unlink()
        backend["embedding"] = "replay"
    elif case == "failed":
        backend.update(chat="replay")  # no chat record: the first essay fails after its titles are embedded
    else:
        icl["strategy"] = case
    config = write_config(tmp_path / "run.yaml", small_dir, tmp_path / "out", icl=icl, backend=backend)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == (1 if case == "failed" else 0)
    assert not list(store.glob("embed/pack-*"))
    assert case == "knn_len" or case == "krn" or list(store.glob("embed/*.json"))


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
    assert stub.keys() == {"config_digest", "inputs", "chat_calls", "embed_calls", "tokens", "wall_clock_seconds"}
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_runs_in_one_process_leave_no_store_descriptor_open(small_dir, tmp_path):
    """Each run, one that fails too, releases the store directories its reads opened, also for its packing."""
    store = {"store_dir": str(tmp_path / "store")}
    one_by_one = {"mode": "one_by_one", "fts": True}
    title = {"strategy": "knn_title"}
    embed = {"embedding": "cache", "embedding_upstream": "hash"}
    runs = [(one_by_one, {"chat": "cache", "cache_upstream": "mock", **store}),
            (one_by_one, {"chat": "replay", **store}),
            (title, {"chat": "cache", "cache_upstream": "mock", **embed, **store}),
            (title, {"chat": "replay", "embedding": "replay", "embedding_upstream": "hash", **store}),
            (one_by_one, {"chat": "replay", "store_dir": str(tmp_path / "empty")})]  # fails on its first miss
    before = len(os.listdir("/proc/self/fd"))
    for index, (icl, backend) in enumerate(runs):
        config = load_run_config(write_config(tmp_path / f"{index}.yaml", small_dir, tmp_path / f"out{index}",
                                              icl=icl, backend=backend))
        if index == len(runs) - 1:
            with pytest.raises(gateway.ReplayMiss):
                cli.run_experiment(config)
        else:
            cli.run_experiment(config)
    assert len(os.listdir("/proc/self/fd")) == before
    assert (tmp_path / "out1" / "records.jsonl").read_bytes() == (tmp_path / "out0" / "records.jsonl").read_bytes()


def title_config(tmp_path, corpus_dir, name, **backend):
    """A title-kNN config writing to ``tmp_path / "cut"``: by default a gold-echo
    mock and hash-8 embeddings, each through the store ``tmp_path / "store"``."""
    backend = {"chat": "cache", "cache_upstream": "mock", "embedding": "cache", "embedding_upstream": "hash",
               "store_dir": str(tmp_path / "store"), **backend}
    return write_config(tmp_path / f"{name}.yaml", corpus_dir, tmp_path / "cut", icl={"strategy": "knn_title"},
                        backend=backend)


def cut_title_run(runner, corpus_dir, tmp_path):
    """A run of the default :func:`title_config`, cut to its first record."""
    config = title_config(tmp_path, corpus_dir, "cut")
    out_dir = load_run_config(config).out_dir
    assert runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False).exit_code == 0
    records = out_dir / "records.jsonl"
    records.write_bytes(records.read_bytes().splitlines(keepends=True)[0])
    return config, out_dir


def test_a_resume_through_another_store_packs_the_titles_that_store_holds(runner, small_dir, small_corpus,
                                                                         tmp_path):
    _, out_dir = cut_title_run(runner, small_dir, tmp_path)
    first = json.loads((out_dir / "records.jsonl").read_text(encoding="utf-8"))["essay_id"]
    config = title_config(tmp_path, small_dir, "other", store_dir=str(tmp_path / "other"))
    assert runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False).exit_code == 0
    model = gateway.HashEmbeddingBackend().model_name
    pack = gateway.ResponseStore(tmp_path / "other").embedding_pack_path(model)
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    assert header["digests"] == [gateway.embedding_digest(model, essay.title) for essay in small_corpus.essays
                                 if essay.essay_id != first]


def tree_bytes(root: Path) -> dict:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
@pytest.mark.parametrize("change", ["mock_mode", "embedding_dim", "corpus_byte", "prompt_constant"])
def test_a_resume_with_other_inputs_is_refused_before_anything_is_written(
    runner, small_dir, tmp_path, monkeypatch, change, dry_run
):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(small_dir, corpus_dir)
    config, out_dir = cut_title_run(runner, corpus_dir, tmp_path)
    backend, part = {}, {"mock_mode": "answer_source", "embedding_dim": "embedding_model",
                         "corpus_byte": "corpus_digest", "prompt_constant": "prompt_digest"}[change]
    if change == "mock_mode":
        backend["mock_mode"] = "constant"
    elif change == "embedding_dim":
        backend["embedding_dim"] = 16
    elif change == "corpus_byte":
        essay = corpus_dir / "essay001.txt"
        data = bytearray(essay.read_bytes())
        data[0] ^= 0x20  # the case of the title's first letter
        essay.write_bytes(bytes(data))
    else:
        monkeypatch.setattr(prompting, "FORMAT_REMINDER", prompting.FORMAT_REMINDER + " Thank you.")
    if backend:
        config = title_config(tmp_path, corpus_dir, "changed", **backend)
    before = tree_bytes(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config), *(["--dry-run"] if dry_run else [])])
    assert isinstance(result.exception, AtcError)
    message = str(result.exception)
    assert "\n" not in message and str(out_dir) in message and part in message
    assert tree_bytes(tmp_path) == before


ONE_BY_ONE = {"mode": "one_by_one", "fts": True}


def test_two_runs_over_corpora_with_the_same_ids_ask_each_its_own_demonstrations(runner, small_dir, small_corpus,
                                                                                  tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(small_dir, changed)
    lines = set()
    for essay in small_corpus.train_essays():  # the case of each first component's first letter
        text = (changed / f"{essay.essay_id}.txt").read_text(encoding="utf-8")
        ann = (changed / f"{essay.essay_id}.ann").read_text(encoding="utf-8")
        start, component = essay.components[0].span.start, essay.components[0].text
        flipped = component[0].swapcase() + component[1:]
        assert flipped != component and f"\t{component}\n" in ann
        lines.add(f"1. {flipped} -> ")
        (changed / f"{essay.essay_id}.txt").write_text(text[:start] + flipped[0] + text[start + 1:], encoding="utf-8")
        (changed / f"{essay.essay_id}.ann").write_text(ann.replace(f"\t{component}\n", f"\t{flipped}\n", 1),
                                                       encoding="utf-8")
    store = tmp_path / "store"
    backend = {"chat": "cache", "cache_upstream": "mock", "store_dir": str(store)}
    requests = []
    for name, corpus_dir in (("first", small_dir), ("second", changed)):
        config = write_config(tmp_path / f"{name}.yaml", corpus_dir, tmp_path / name, icl=ONE_BY_ONE, backend=backend)
        assert runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False).exit_code == 0
        assert (tmp_path / name / "records.jsonl").read_bytes() == (tmp_path / "first" / "records.jsonl").read_bytes()
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend_tags_used"] == ["mock"]  # no request of the second run is one of the first's
        requests.append({name: json.loads(data)["request"]["user_text"]
                         for name, data in inline_chat_records(store).items()})
    first, both = requests
    assert len(both) == 2 * len(first) == 2 * manifest["chat_calls"]
    second = [text for digest, text in both.items() if digest not in first]
    assert all(any(line in text for line in lines) for text in second)
    assert not any(line in text for line in lines for text in first.values())


def test_a_replayed_one_by_one_run_never_joins_a_user_text(runner, small_dir, tmp_path, monkeypatch):
    joins, real_getattr = [], gateway.ChatRequest.__getattr__

    def counting_getattr(request, name):
        joins.append(name)
        return real_getattr(request, name)

    monkeypatch.setattr(gateway.ChatRequest, "__getattr__", counting_getattr)
    store = str(tmp_path / "store")
    counts = []
    for name, backend in (("recorded", {"chat": "cache", "cache_upstream": "mock", "store_dir": store}),
                          ("replayed", {"chat": "replay", "store_dir": store})):
        joins.clear()
        config = write_config(tmp_path / f"{name}.yaml", small_dir, tmp_path / name, icl=ONE_BY_ONE, backend=backend)
        assert runner.invoke(main, ["run", "--config", str(config)], catch_exceptions=False).exit_code == 0
        counts.append(joins.count("user_text"))
    records = [(tmp_path / name / "records.jsonl").read_bytes() for name in ("recorded", "replayed")]
    assert records[0] == records[1]
    manifest = json.loads((tmp_path / "recorded" / "manifest.json").read_text(encoding="utf-8"))
    assert counts == [manifest["chat_calls"], 0]  # the mock reads each request's text; the replay reads none


def test_a_store_of_inline_and_context_records_resumes_and_replays_to_the_same_records(runner, small_dir, tmp_path,
                                                                                       monkeypatch):
    def config(name, **backend):
        return write_config(tmp_path / f"{name}.yaml", small_dir, tmp_path / name, icl=ONE_BY_ONE,
                            backend={"store_dir": str(tmp_path / "store"), **backend})

    def run(path):
        assert runner.invoke(main, ["run", "--config", str(path)], catch_exceptions=False).exit_code == 0

    recorded = write_config(tmp_path / "recorded.yaml", small_dir, tmp_path / "recorded", icl=ONE_BY_ONE,
                            backend={"chat": "cache", "cache_upstream": "mock", "store_dir": str(tmp_path / "first")})
    run(recorded)
    full = (tmp_path / "recorded" / "records.jsonl").read_bytes()
    # Every other request's record as a store written before context files holds it: inline.
    inline = inline_chat_records(tmp_path / "first")
    (tmp_path / "store" / "chat").mkdir(parents=True)
    for name in sorted(inline)[::2]:
        (tmp_path / "store" / "chat" / name).write_bytes(inline[name])
    cache = config("resumed", chat="cache", cache_upstream="mock")
    real_run_ensemble, started = cli.run_ensemble, []

    def stops_before_the_second_essay(query, *args, **kwargs):
        if started:
            raise RuntimeError("interrupted")
        started.append(query.essay_id)
        return real_run_ensemble(query, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_ensemble", stops_before_the_second_essay)
        assert isinstance(runner.invoke(main, ["run", "--config", str(cache)]).exception, RuntimeError)
    assert len((tmp_path / "resumed" / "records.jsonl").read_bytes().splitlines()) == 1
    run(cache)
    assert (tmp_path / "resumed" / "records.jsonl").read_bytes() == full
    layouts = {path.read_bytes().startswith(CONTEXT_RECORD_HEAD) for path in (tmp_path / "store" / "chat").iterdir()}
    assert layouts == {False, True}
    assert inline_chat_records(tmp_path / "store") == inline
    run(config("replayed", chat="replay"))
    assert (tmp_path / "replayed" / "records.jsonl").read_bytes() == full
    manifest = json.loads((tmp_path / "replayed" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend_tags_used"] == ["replay"]


@pytest.mark.parametrize("name", ["CLASS_DEFINITIONS_HEADER", "TRAIN_COUNTS_LINE", "EXAMPLE_HEADER", "TITLE_LINE",
                                  "FULL_TEXT_HEADER", "DEMO_COMPONENTS_HEADER", "QUERY_COMPONENTS_HEADER"])
def test_each_fixed_prompt_line_is_a_constant_the_prompt_digest_covers(small_corpus, monkeypatch, name):
    def render():
        config = prompting.PromptConfig(include_info=True, include_essay=True)
        info = prompting.build_info_block(small_corpus)
        demos = [small_corpus.train_essays()[:2]]
        (prompt,) = prompting.build_prompt(small_corpus.test_essays()[0], demos, config, info)
        return "".join(prompt.pieces), cli._prompt_digest()

    before = render()
    monkeypatch.setattr(prompting, name, getattr(prompting, name) + " ")
    after = render()
    assert after[0] != before[0] and after[1] != before[1]


def test_the_prompt_digest_covers_the_retry_budget_and_the_label_spellings(monkeypatch):
    before = cli._prompt_digest()
    monkeypatch.setattr(prompting, "MAX_RETRIES", prompting.MAX_RETRIES + 1)
    assert cli._prompt_digest() != before
    monkeypatch.undo()
    monkeypatch.setitem(prompting._LABEL_ALIASES, "mc", Label.MAJOR_CLAIM)
    assert cli._prompt_digest() != before


def test_a_manifest_without_inputs_is_refused(runner, small_dir, tmp_path):
    config, out_dir = cut_title_run(runner, small_dir, tmp_path)
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"config_digest": json.loads(manifest.read_text())["config_digest"]}))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert isinstance(result.exception, AtcError)
    assert str(out_dir) in str(result.exception) and "records no inputs" in str(result.exception)


def test_a_cache_run_resumes_as_a_replay_and_keeps_its_answer_source(runner, small_dir, tmp_path):
    config, out_dir = cut_title_run(runner, small_dir, tmp_path)
    full = {name: (out_dir / name).read_bytes() for name in ("report.json", "report.txt")}
    replay = title_config(tmp_path, small_dir, "replay", chat="replay", embedding="replay")
    result = runner.invoke(main, ["run", "--config", str(replay)], catch_exceptions=False)
    assert result.exit_code == 0
    assert {name: (out_dir / name).read_bytes() for name in full} == full
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"]["answer_source"] == "gold_echo"
    assert manifest["backend_tags_used"] == ["replay"]
    # The kept answer source still refuses a constant mock after the replay.
    constant = title_config(tmp_path, small_dir, "constant", mock_mode="constant")
    assert "answer_source 'gold_echo'" in str(runner.invoke(main, ["run", "--config", str(constant)]).exception)


def test_live_and_a_cache_over_live_have_the_same_inputs(small_dir, small_corpus, tmp_path):
    live = write_config(tmp_path / "live.yaml", small_dir, tmp_path / "out", backend={"chat": "live"})
    cache = write_config(tmp_path / "cache.yaml", small_dir, tmp_path / "out",
                         backend={"chat": "cache", "store_dir": str(tmp_path / "store")})
    inputs = [cli._inputs(load_run_config(path), small_corpus) for path in (live, cache)]
    assert inputs[0] == inputs[1]
    assert inputs[0]["answer_source"] == "live" and inputs[0]["embedding_model"] is None


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
    inputs = json.loads((full_dir / "manifest.json").read_text(encoding="utf-8"))["inputs"]
    previous = json.dumps({"config_digest": digest, "inputs": inputs}, indent=2, sort_keys=True) + "\n"
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

    # Every answer reports its word counts as token usage. The chat backend goes
    # away on the second essay of the stopped run, once its titles are ranked:
    # the first essay takes 3 rounds and gold echo never retries.
    real_make_gateway = cli.make_gateway
    answered, stop_after = [], []

    def make_gateway(config, corpus=None):
        gateway = real_make_gateway(config, corpus)
        real_complete = gateway.chat_backend.complete

        def complete(request):
            if len(answered) in stop_after:
                raise RuntimeError("chat backend went away")
            answered.append(request)
            response = real_complete(request)
            usage = Usage(len(request.user_text.split()), len(response.text.split()))
            return dataclasses.replace(response, usage=usage)

        gateway.chat_backend.complete = complete
        return gateway

    monkeypatch.setattr(cli, "make_gateway", make_gateway)
    full_dir, stopped_dir = tmp_path / "full", tmp_path / "stopped"
    assert run(full_dir).exit_code == 0
    answered.clear()
    stop_after.append(3)
    assert isinstance(run(stopped_dir).exception, RuntimeError)
    stop_after.clear()
    assert len((stopped_dir / "records.jsonl").read_bytes().splitlines()) == 1
    stub = manifest(stopped_dir)
    assert (stub["chat_calls"], stub["embed_calls"]) == (3, 9)  # one essay: 3 rounds, pool of 8 + 1
    assert 0 < stub["tokens"]["prompt"] < manifest(full_dir)["tokens"]["prompt"]

    assert run(stopped_dir).exit_code == 0
    resumed, full = manifest(stopped_dir), manifest(full_dir)
    assert (resumed["chat_calls"], resumed["embed_calls"]) == (full["chat_calls"], full["embed_calls"]) == (12, 36)
    assert resumed["tokens"] == full["tokens"]
    records = [json.loads(line) for line in (full_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()]
    texts = [text for record in records for round_ in record["responses"] for text in round_]
    assert full["tokens"]["completion"] == sum(len(text.split()) for text in texts)
    assert resumed["wall_clock_seconds"] >= stub["wall_clock_seconds"]
    assert (stopped_dir / "records.jsonl").read_bytes() == (full_dir / "records.jsonl").read_bytes()

    # A rerun with nothing left to do keeps the counts.
    assert run(stopped_dir).exit_code == 0
    assert (manifest(stopped_dir)["chat_calls"], manifest(stopped_dir)["embed_calls"]) == (12, 36)
    assert manifest(stopped_dir)["tokens"] == full["tokens"]


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


LOADED_MODULES_AFTER = """
import json, sys
from atc_icl import cli

if sys.argv[1:]:
    cli.main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(name for name in sys.modules if name.startswith("atc_icl."))))
"""


@pytest.mark.parametrize("command", ["import", "replay", "mock", "export"])
def test_only_a_mock_run_loads_the_mocks_and_only_export_loads_finetune(runner, small_dir, small_corpus, tmp_path,
                                                                         command):
    """In a fresh interpreter, where no test has imported them already."""
    store, out = tmp_path / "store", tmp_path / "out"
    if command == "replay":
        record = write_config(tmp_path / "record.yaml", small_dir, tmp_path / "recorded",
                              backend={"chat": "cache", "cache_upstream": "mock", "store_dir": str(store)})
        assert runner.invoke(main, ["run", "--config", str(record)]).exit_code == 0
    backend = {"chat": "replay", "store_dir": str(store)} if command == "replay" else {}
    config = write_config(tmp_path / "run.yaml", small_dir, out, backend=backend)
    args = {
        "import": [],
        "replay": ["run", "--config", str(config)],
        "mock": ["run", "--config", str(config)],
        "export": ["export", str(small_dir), str(small_dir / SPLIT_FILE_NAME), "--split", "train", "--out", str(out)],
    }[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES_AFTER, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert ("atc_icl.mocks" in loaded, "atc_icl.finetune" in loaded) == (command == "mock", command == "export")
    if command in ("replay", "mock"):
        assert "macro F1: 1.0000" in done.stdout
    if command == "export":
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == sum(e.m for e in small_corpus.train_essays())


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
