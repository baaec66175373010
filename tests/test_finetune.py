"""Fine-tuning JSONL export: counts, feature injection, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from atc_icl.corpus import Label, Split, compute_stats, load_corpus, parse_essay
from atc_icl.finetune import IoFailure, build_record, export
from atc_icl.prompting import parse_response
from conftest import PARK_ANN, PARK_TEXT, write_corpus_dir

DATA = Path(__file__).parent / "data"


def park_corpus(tmp_path):
    root = write_corpus_dir(tmp_path / "corpus", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    return load_corpus(root, root / "train-test-split.csv")


def test_featxt_records_match_golden_file(tmp_path):
    corpus = park_corpus(tmp_path)
    out = tmp_path / "train.jsonl"
    count = export(corpus, Split.TRAIN, featxt=True, out=out)
    assert count == 4
    assert out.read_text(encoding="utf-8") == (DATA / "finetune_featxt_golden.jsonl").read_text(
        encoding="utf-8"
    )


def test_featxt_record_carries_all_five_feature_elements():
    essay = parse_essay(PARK_TEXT, PARK_ANN, "essay001")
    record = build_record(essay, essay.components[0], featxt=True)
    user = record["messages"][1]["content"]
    assert "Essay title: Keeping city parks open at night" in user
    assert "Sentence: City parks should stay open at night." in user
    assert "Paragraph number: 1" in user
    assert "Is the AC first in its paragraph: yes." in user
    assert "Is the AC in the introduction of the essay: yes." in user
    assert "Argument component: City parks should stay open at night" in user
    assert record["messages"][2]["content"] == "Major Claim"


def test_plain_record_is_component_text_only():
    essay = parse_essay(PARK_TEXT, PARK_ANN, "essay001")
    record = build_record(essay, essay.components[2], featxt=False)
    assert record["messages"][1]["content"] == "they cost little to keep open"
    assert "Is the AC" not in record["messages"][1]["content"]
    assert record["messages"][2]["content"] == "Premise"


def test_export_counts_match_split_component_counts(small_corpus, tmp_path):
    train_out = tmp_path / "train.jsonl"
    test_out = tmp_path / "test.jsonl"
    train_count = export(small_corpus, Split.TRAIN, featxt=True, out=train_out)
    test_count = export(small_corpus, Split.TEST, featxt=False, out=test_out)
    assert train_count == compute_stats(small_corpus, Split.TRAIN).component_count
    assert test_count == compute_stats(small_corpus, Split.TEST).component_count
    assert train_count + test_count == compute_stats(small_corpus).component_count
    assert len(train_out.read_text(encoding="utf-8").splitlines()) == train_count


def test_every_line_is_valid_json_with_parseable_label(small_corpus, tmp_path):
    out = tmp_path / "test.jsonl"
    export(small_corpus, Split.TEST, featxt=True, out=out)
    for line in out.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        roles = [message["role"] for message in record["messages"]]
        assert roles == ["system", "user", "assistant"]
        # The gold label round-trips through the response parser.
        parsed = parse_response(record["messages"][2]["content"], 1)
        assert parsed[0] in set(Label)


def test_export_is_byte_deterministic(small_corpus, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    export(small_corpus, Split.TRAIN, featxt=True, out=first)
    export(small_corpus, Split.TRAIN, featxt=True, out=second)
    assert first.read_bytes() == second.read_bytes()


def test_export_io_failure(small_corpus, tmp_path):
    with pytest.raises(IoFailure):
        export(small_corpus, Split.TRAIN, featxt=False, out=tmp_path / "missing-dir" / "x.jsonl")
