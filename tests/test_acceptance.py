"""Acceptance suite: one test per shipped quality criterion.

The conftest hook prints one ``[acceptance] <name>: PASS/FAIL`` line per test
here. Criteria that quantify the official essay corpus run against it when
``PE_DATA_DIR`` points at the brat files (the corpus is license-restricted
and cannot be bundled); the same assertions always run against the bundled
synthetic stand-in, which reproduces the documented corpus shape exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from random import Random

import pytest

from atc_icl.config import load_run_config, run_label
from atc_icl.corpus import LABELS, TIE_BREAK_RANK, Label, Split, compute_stats, load_corpus
from atc_icl.ensemble import majority_vote
from atc_icl.finetune import export
from atc_icl.gateway import Gateway, cosine_similarity
from atc_icl.metrics import evaluate
from atc_icl.prompting import parse_response, render_labels
from atc_icl.selection import SelectionStrategy, rank_neighbors
from atc_icl.synth import SPLIT_FILE_NAME
from conftest import MappingEmbeddingBackend, invoke, simple_essay, user_texts

REPO = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"

EXPECTED_COUNTS = {
    "essays": 402,
    "train": 322,
    "test": 80,
    "paragraphs": 1833,
    "major_claims": 751,
    "claims": 1506,
    "premises": 3832,
    "components": 6089,
}
TOKEN_TARGET = 147_271
SENTENCE_TARGET = 7_116


def assert_corpus_fidelity(corpus_dir: Path, split_file: Path) -> None:
    started = time.monotonic()
    corpus = load_corpus(corpus_dir, split_file)
    stats = compute_stats(corpus)
    elapsed = time.monotonic() - started

    assert stats.essay_count == EXPECTED_COUNTS["essays"]
    assert len(corpus.train_essays()) == EXPECTED_COUNTS["train"]
    assert len(corpus.test_essays()) == EXPECTED_COUNTS["test"]
    assert stats.paragraph_count == EXPECTED_COUNTS["paragraphs"]
    assert stats.label_counts[Label.MAJOR_CLAIM] == EXPECTED_COUNTS["major_claims"]
    assert stats.label_counts[Label.CLAIM] == EXPECTED_COUNTS["claims"]
    assert stats.label_counts[Label.PREMISE] == EXPECTED_COUNTS["premises"]
    assert stats.component_count == EXPECTED_COUNTS["components"]
    assert abs(stats.token_count - TOKEN_TARGET) <= 0.02 * TOKEN_TARGET, stats.token_count
    assert abs(stats.sentence_count - SENTENCE_TARGET) <= 0.02 * SENTENCE_TARGET, stats.sentence_count
    assert elapsed < 30.0, f"corpus load plus stats took {elapsed:.1f}s"


def test_criterion_1_corpus_fidelity_synthetic_standin(synth_dir):
    assert_corpus_fidelity(synth_dir, synth_dir / SPLIT_FILE_NAME)


@pytest.mark.skipif(
    "PE_DATA_DIR" not in os.environ,
    reason="official corpus not available; set PE_DATA_DIR to its brat directory",
)
def test_criterion_1_corpus_fidelity_official():
    data_dir = Path(os.environ["PE_DATA_DIR"])
    split_candidates = [
        Path(os.environ["PE_SPLIT_FILE"]) if "PE_SPLIT_FILE" in os.environ else None,
        data_dir / "train-test-split.csv",
        data_dir.parent / "train-test-split.csv",
    ]
    split_file = next((p for p in split_candidates if p and p.exists()), None)
    assert split_file is not None, "no train-test-split.csv found near PE_DATA_DIR"
    assert_corpus_fidelity(data_dir, split_file)


GRID_CONFIGS = {
    "gpt4_info_essay_5nnlen.yaml": ("info + essay + 5NN^len", "gpt-4"),
    "gpt4_info_essay_5nnlen_3ens.yaml": ("info + essay + 5NN^len + 3Ens", "gpt-4"),
    "gpt4_essay_5nn_5ens.yaml": ("essay + 5NN + 5Ens", "gpt-4"),
    "gpt4_info_essay_5nn_3ens.yaml": ("info + essay + 5NN + 3Ens", "gpt-4"),
    "gpt4_info_essay_5nn_5ens.yaml": ("info + essay + 5NN + 5Ens", "gpt-4"),
    "gpt4_info_essay_fts_5nn_5ens.yaml": ("info + essay + fts + 5NN + 5Ens", "gpt-4"),
    "gpt35_info_essay_5nn_5ens.yaml": ("info + essay + 5NN + 5Ens", "gpt-3.5-turbo"),
}


def test_criterion_2_published_numbers_not_reproduced_but_grid_expressible():
    # The published macro F1 values (0.836 for the strongest prompting row,
    # 0.863 for the feature-enriched fine-tune) came from closed commercial
    # models and paid training jobs; this artifact does not claim to
    # reproduce them and says so in its README. What it does guarantee is
    # that every published prompt configuration is expressible and runnable.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "0.836" in readme and "0.863" in readme
    assert "not reproduc" in readme.lower()

    for file_name, (expected_label, expected_model) in GRID_CONFIGS.items():
        config = load_run_config(REPO / "configs" / file_name)
        assert run_label(config.icl) == expected_label, file_name
        assert config.icl.model_name == expected_model, file_name
        assert config.icl.temperature == 0.0
    print("published scores depend on closed models; property suite substitutes for them")


def _write_run_config(path: Path, corpus_dir: Path, out_dir: Path, backend_lines: list[str],
                      icl_lines: list[str]) -> Path:
    lines = [
        f"corpus_dir: {corpus_dir}",
        f"split_file: {corpus_dir / SPLIT_FILE_NAME}",
        f"out_dir: {out_dir}",
        "icl:",
        *[f"  {line}" for line in icl_lines],
        "backend:",
        *[f"  {line}" for line in backend_lines],
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def naive_all_premise_macro(gold: list[Label]) -> float:
    """Independent confusion oracle for constant-Premise predictions."""
    f1s = []
    for label in LABELS:
        tp = sum(1 for g in gold if g is label and label is Label.PREMISE)
        predicted = len(gold) if label is Label.PREMISE else 0
        actual = sum(1 for g in gold if g is label)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
    return sum(f1s) / 3


def test_criterion_3_gold_echo_full_test_split(synth_dir, synth_corpus, tmp_path):
    icl_lines = [
        "strategy: knn_len", "k: 5", "n: 5", "info: true", "essay: true",
        "fts: false", "mode: all_at_once", "model: gpt-4", "run_seed: 11",
    ]
    started = time.monotonic()
    gold_dir = tmp_path / "gold-run"
    config = _write_run_config(
        tmp_path / "gold.yaml", synth_dir, gold_dir,
        ["chat: mock", "mock_mode: gold_echo"], icl_lines,
    )
    result = invoke(["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0
    report = json.loads((gold_dir / "report.json").read_text(encoding="utf-8"))
    assert report["macro_f1"] == 1.0
    records = (gold_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(records) == 80

    premise_dir = tmp_path / "premise-run"
    config2 = _write_run_config(
        tmp_path / "premise.yaml", synth_dir, premise_dir,
        ["chat: mock", "mock_mode: constant"], icl_lines,
    )
    result2 = invoke(["run", "--config", str(config2)], catch_exceptions=False)
    assert result2.exit_code == 0
    elapsed = time.monotonic() - started
    report2 = json.loads((premise_dir / "report.json").read_text(encoding="utf-8"))
    gold_labels = [c.gold_label for e in synth_corpus.test_essays() for c in e.components]
    assert abs(report2["macro_f1"] - naive_all_premise_macro(gold_labels)) < 1e-9

    for out_dir in (gold_dir, premise_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend_tags_used"] == ["mock"], "network tags present"
    assert elapsed < 60.0, f"both full-split runs took {elapsed:.1f}s"


def test_criterion_4_majority_vote_exhaustive():
    def oracle(votes):
        best = None
        for label in LABELS:
            count = sum(1 for v in votes if v is label)
            key = (count, TIE_BREAK_RANK[label])
            if best is None or key > best[0]:
                best = (key, label)
        return best[1]

    checked = 0
    for length in range(1, 6):
        for votes in itertools.product(LABELS, repeat=length):
            assert majority_vote(list(votes)) is oracle(votes), votes
            checked += 1
    assert checked == 363
    # Documented tie-break outcomes.
    assert majority_vote([Label.MAJOR_CLAIM, Label.CLAIM]) is Label.CLAIM
    assert majority_vote([Label.CLAIM, Label.PREMISE]) is Label.PREMISE
    assert majority_vote([Label.MAJOR_CLAIM, Label.PREMISE]) is Label.PREMISE
    assert (
        majority_vote([Label.MAJOR_CLAIM, Label.MAJOR_CLAIM, Label.CLAIM, Label.CLAIM, Label.PREMISE])
        is Label.CLAIM
    )


def test_criterion_5_knn_oracles_and_krn_uniformity():
    rng = Random(1105)
    dim = 8
    for trial in range(200):
        size = rng.randint(4, 20)
        pool = [
            simple_essay(f"e{i:02d}", f"Pool {trial}-{i}", [Label.CLAIM] * rng.randint(1, 9))
            for i in range(size)
        ]
        query = simple_essay("q", f"Query {trial}", [Label.CLAIM] * rng.randint(1, 9))
        n = rng.randrange(2, size + 1, 2)

        vectors = {e.title: [rng.gauss(0, 1) for _ in range(dim)] for e in pool}
        vectors[query.title] = [rng.gauss(0, 1) for _ in range(dim)]
        gateway = Gateway(embedding_backend=MappingEmbeddingBackend(vectors))
        ranked_title = rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, n, 0, gateway)
        oracle_gateway = Gateway(embedding_backend=MappingEmbeddingBackend(vectors))
        query_vec = oracle_gateway.embed(query.title)
        by_cosine = sorted(
            ((-cosine_similarity(oracle_gateway.embed(e.title), query_vec), e.essay_id) for e in pool)
        )
        assert ranked_title == [essay_id for _, essay_id in by_cosine[:n]], trial

        ranked_len = rank_neighbors(query, pool, SelectionStrategy.KNN_LEN, n, 0)
        by_distance = sorted((abs(e.m - query.m), e.essay_id) for e in pool)
        assert ranked_len == [essay_id for _, essay_id in by_distance[:n]], trial

    pool = [simple_essay(f"e{i:02d}", f"T{i}", [Label.CLAIM]) for i in range(12)]
    query = simple_essay("q", "Q", [Label.CLAIM])
    counts = {e.essay_id: 0 for e in pool}
    draws = 10_000
    for seed in range(draws):
        for essay_id in rank_neighbors(query, pool, SelectionStrategy.KRN, 6, seed):
            counts[essay_id] += 1
    for essay_id, count in counts.items():
        assert abs(count / draws - 0.5) < 0.03, (essay_id, count / draws)


def test_criterion_6_round_trip_and_snapshot(park_essay):
    rng = Random(606)
    for _ in range(1000):
        labels = [rng.choice(LABELS) for _ in range(rng.randint(1, 25))]
        assert parse_response(render_labels(labels), len(labels)) == labels

    # Byte-stable prompt snapshot (frozen golden file).
    from test_prompting import demo_pair, info_block
    from atc_icl.prompting import PromptConfig, build_prompt

    config = PromptConfig(include_info=True, include_essay=True, include_fts=True)
    (prompt,) = build_prompt(park_essay, [list(demo_pair())], config, info_block())
    (user_text,) = user_texts(prompt)
    rendered = prompt.system_text + "\n<<<USER>>>\n" + user_text + "\n"
    assert rendered.encode("utf-8") == (DATA / "prompt_snapshot.txt").read_bytes()


def test_criterion_7_metrics_fixtures_and_equivariance():
    MC, C, P = Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE
    fixtures = [
        ([MC, C, P, MC, C, P], [MC, C, P, MC, C, P], 1.0),
        ([MC, MC, C, C, P, P, P, P], [P] * 8, 0.2222),
        ([MC, MC, C, P], [MC, C, C, P], 7 / 9),
        ([C, C, P, P], [MC, C, P, P], 5 / 9),
        ([MC, C, P], [C, P, MC], 0.0),
        ([P], [P], 1 / 3),
    ]
    for gold, pred, macro in fixtures:
        assert evaluate(pred, gold).macro_f1 == pytest.approx(macro, abs=1e-4)
    all_premise = evaluate([P] * 8, [MC, MC, C, C, P, P, P, P])
    assert all_premise.per_label[P].f1 == pytest.approx(2 / 3, abs=1e-9)
    assert all_premise.macro_f1 == pytest.approx(0.2222, abs=1e-4)

    rng = Random(77)
    gold = [rng.choice(LABELS) for _ in range(60)]
    pred = [rng.choice(LABELS) for _ in range(60)]
    baseline = evaluate(pred, gold)
    for _ in range(100):
        order = list(range(60))
        rng.shuffle(order)
        shuffled = evaluate([pred[i] for i in order], [gold[i] for i in order])
        assert shuffled.macro_f1 == pytest.approx(baseline.macro_f1, abs=1e-12)


def test_criterion_8_replay_reruns_are_byte_identical(small_dir, tmp_path):
    store = tmp_path / "store"
    icl_lines = [
        "strategy: knn_title", "k: 3", "n: 3", "info: true", "essay: true",
        "mode: all_at_once", "model: gpt-4", "run_seed: 23",
    ]
    record_backend = [
        "chat: cache", "cache_upstream: mock", "mock_mode: gold_echo",
        "embedding: hash", f"store_dir: {store}",
    ]
    config = _write_run_config(
        tmp_path / "record.yaml", small_dir, tmp_path / "recorded", record_backend, icl_lines
    )
    assert invoke(["run", "--config", str(config)], catch_exceptions=False).exit_code == 0

    outputs = []
    for name in ("replay-a", "replay-b"):
        out_dir = tmp_path / name
        replay_backend = ["chat: replay", "embedding: hash", f"store_dir: {store}"]
        replay_config = _write_run_config(
            tmp_path / f"{name}.yaml", small_dir, out_dir, replay_backend, icl_lines
        )
        result = invoke(["run", "--config", str(replay_config)], catch_exceptions=False)
        assert result.exit_code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        # Chat answers come from the recorded store, embeddings from the
        # deterministic offline backend; nothing touches the network.
        assert manifest["backend_tags_used"] == ["mock", "replay"]
        outputs.append(
            ((out_dir / "records.jsonl").read_bytes(), (out_dir / "report.json").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0], "records differ between replay runs"
    assert outputs[0][1] == outputs[1][1], "reports differ between replay runs"


def test_criterion_9_finetune_export_full_corpus(synth_corpus, tmp_path):
    train_out = tmp_path / "train.jsonl"
    test_out = tmp_path / "test.jsonl"
    train_count = export(synth_corpus, Split.TRAIN, featxt=True, out=train_out)
    test_count = export(synth_corpus, Split.TEST, featxt=True, out=test_out)
    assert train_count + test_count == 6089

    feature_keys = ("Essay title:", "Sentence:", "Paragraph number:",
                    "Is the AC first in its paragraph:", "Argument component:")
    for path in (train_out, test_out):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)  # every line is valid JSON
            user = record["messages"][1]["content"]
            for key in feature_keys:
                assert key in user
            assert record["messages"][2]["content"] in {"Major Claim", "Claim", "Premise"}

    # Golden-file check for the exact feature wording.
    from atc_icl.corpus import parse_essay
    from atc_icl.finetune import build_record
    from conftest import PARK_ANN, PARK_TEXT

    essay = parse_essay(PARK_TEXT, PARK_ANN, "essay001")
    lines = [
        json.dumps(build_record(essay, index, featxt=True), ensure_ascii=False)
        for index in range(essay.m)
    ]
    assert "\n".join(lines) + "\n" == (DATA / "finetune_featxt_golden.jsonl").read_text(
        encoding="utf-8"
    )
