"""Evaluation metrics against hand-computed confusion fixtures."""

from __future__ import annotations

import json
from random import Random

import pytest

from atc_icl.corpus import LABELS, Label
from atc_icl.ensemble import PredictionRecord
from atc_icl.metrics import (
    EmptyEvaluation,
    LengthMismatch,
    MissingEssay,
    SplitViolation,
    aggregate_runs,
    evaluate,
    render_report,
    render_score_rows,
)

MC, C, P = Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE


def naive_class_metrics(pred, gold, label):
    """Independent oracle with plain loops, no confusion matrix."""
    tp = sum(1 for p, g in zip(pred, gold) if p is label and g is label)
    predicted = sum(1 for p in pred if p is label)
    actual = sum(1 for g in gold if g is label)
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# Five fixed fixtures, hand-computed.
FIXTURES = [
    # (gold, pred, expected per-class F1 in MC/C/P order, expected macro)
    ([MC, C, P, MC, C, P], [MC, C, P, MC, C, P], (1.0, 1.0, 1.0), 1.0),
    ([MC, MC, C, C, P, P, P, P], [P] * 8, (0.0, 0.0, 2 / 3), 2 / 9),
    ([MC, MC, C, P], [MC, C, C, P], (2 / 3, 2 / 3, 1.0), 7 / 9),
    ([C, C, P, P], [MC, C, P, P], (0.0, 2 / 3, 1.0), 5 / 9),
    ([MC, C, P], [C, P, MC], (0.0, 0.0, 0.0), 0.0),
    ([P], [P], (0.0, 0.0, 1.0), 1 / 3),
]


@pytest.mark.parametrize("gold,pred,f1s,macro", FIXTURES)
def test_evaluate_matches_hand_computed_fixtures(gold, pred, f1s, macro):
    report = evaluate(pred, gold)
    for label, expected in zip(LABELS, f1s):
        assert report.per_label[label].f1 == pytest.approx(expected, abs=1e-9)
    assert report.macro_f1 == pytest.approx(macro, abs=1e-9)


def test_all_premise_macro_value():
    report = evaluate([P] * 8, [MC, MC, C, C, P, P, P, P])
    assert report.per_label[P].f1 == pytest.approx(0.6667, abs=1e-4)
    assert report.macro_f1 == pytest.approx(0.2222, abs=1e-4)


def test_evaluate_agrees_with_naive_oracle_on_random_pairs():
    rng = Random(99)
    for _ in range(50):
        size = rng.randint(1, 60)
        gold = [rng.choice(LABELS) for _ in range(size)]
        pred = [rng.choice(LABELS) for _ in range(size)]
        report = evaluate(pred, gold)
        for label in LABELS:
            precision, recall, f1 = naive_class_metrics(pred, gold, label)
            assert report.per_label[label].precision == pytest.approx(precision, abs=1e-12)
            assert report.per_label[label].recall == pytest.approx(recall, abs=1e-12)
            assert report.per_label[label].f1 == pytest.approx(f1, abs=1e-12)


def test_evaluate_errors():
    with pytest.raises(LengthMismatch):
        evaluate([P], [P, C])
    with pytest.raises(EmptyEvaluation):
        evaluate([], [])


def test_permutation_equivariance_100_shuffles():
    rng = Random(7)
    gold = [rng.choice(LABELS) for _ in range(40)]
    pred = [rng.choice(LABELS) for _ in range(40)]
    baseline = evaluate(pred, gold)
    for _ in range(100):
        order = list(range(len(gold)))
        rng.shuffle(order)
        report = evaluate([pred[i] for i in order], [gold[i] for i in order])
        assert report.macro_f1 == pytest.approx(baseline.macro_f1, abs=1e-12)
        for label in LABELS:
            assert report.per_label[label].f1 == pytest.approx(
                baseline.per_label[label].f1, abs=1e-12
            )


def test_macro_bounded_by_class_f1s():
    rng = Random(31)
    for _ in range(30):
        size = rng.randint(1, 30)
        gold = [rng.choice(LABELS) for _ in range(size)]
        pred = [rng.choice(LABELS) for _ in range(size)]
        report = evaluate(pred, gold)
        f1s = [report.per_label[label].f1 for label in LABELS]
        assert min(f1s) - 1e-12 <= report.macro_f1 <= max(f1s) + 1e-12


def test_confusion_matrix_marginals():
    gold = [MC, MC, C, P, P, P]
    pred = [MC, C, C, P, MC, P]
    report = evaluate(pred, gold)
    assert report.components == 6
    assert [report.per_label[label].support for label in LABELS] == [2, 1, 3]
    # 2 predicted per class: precision is true positives over 2.
    assert [report.per_label[label].precision for label in LABELS] == [0.5, 0.5, 1.0]
    assert [report.per_label[label].recall for label in LABELS] == [0.5, 1.0, 2 / 3]


def record_for(essay, labels=None):
    final = tuple(labels if labels is not None else [c.gold_label for c in essay.components])
    return PredictionRecord(
        essay_id=essay.essay_id,
        rounds=(final,),
        final=final,
        vote_counts=tuple({label.value: 1} for label in final),
        selections=(),
    )


def test_aggregate_runs_concatenation_oracle(small_corpus):
    test_essays = small_corpus.test_essays()
    rng = Random(5)
    records, preds, golds = [], [], []
    for essay in test_essays:
        predicted = [rng.choice(LABELS) for _ in essay.components]
        records.append(record_for(essay, predicted))
        preds.extend(predicted)
        golds.extend(c.gold_label for c in essay.components)
    combined = aggregate_runs(records, small_corpus)
    direct = evaluate(preds, golds)
    assert combined.macro_f1 == pytest.approx(direct.macro_f1, abs=1e-12)
    assert combined == direct


def test_aggregate_runs_gold_echo_is_perfect(small_corpus):
    records = [record_for(essay) for essay in small_corpus.test_essays()]
    report = aggregate_runs(records, small_corpus)
    assert report.macro_f1 == 1.0


def test_aggregate_runs_split_violation(small_corpus):
    train_essay = small_corpus.train_essays()[0]
    with pytest.raises(SplitViolation):
        aggregate_runs([record_for(train_essay)], small_corpus)


def test_aggregate_runs_missing_essay(small_corpus):
    essay = small_corpus.test_essays()[0]
    record = record_for(essay)
    ghost = PredictionRecord(
        essay_id="essay999",
        rounds=record.rounds,
        final=record.final,
        vote_counts=record.vote_counts,
        selections=(),
    )
    with pytest.raises(MissingEssay):
        aggregate_runs([ghost], small_corpus)


def test_aggregate_runs_length_mismatch(small_corpus):
    essay = small_corpus.test_essays()[0]
    with pytest.raises(LengthMismatch):
        aggregate_runs([record_for(essay, [P])], small_corpus)


def test_render_report_column_order():
    report = evaluate([MC, C, P], [MC, C, P], run_label="info + essay + 5NN + 5Ens")
    text = render_report(report)
    header, row = text.splitlines()[0], text.splitlines()[1]
    assert header.split() == ["Run", "MC", "C", "P", "F1"]
    assert "info + essay + 5NN + 5Ens" in row


@pytest.mark.parametrize("run_label", ["info + essay + fts + 5NN^len + 3Ens + one-by-one", "x" * 40, "x" * 41, ""])
def test_a_long_run_label_keeps_every_score_under_its_heading(run_label):
    report = evaluate([MC, C, P], [MC, C, C], run_label=run_label)
    header, row = render_report(report).splitlines()[:2]
    assert len(header) == len(row) == max(40, len(run_label)) + 32
    assert (header[:-32].rstrip(), row[:-32].rstrip()) == ("Run", run_label or "-")
    # Four 8-character columns, each score right-aligned under its heading.
    assert header[-32:] == "      MC       C       P      F1"
    scores = row[-32:]
    assert [scores[j : j + 8] for j in range(0, 32, 8)] == ["   1.000", "   0.667", "   0.000", "   0.556"]


def test_score_rows_of_several_reports_share_their_columns():
    labels = ["essay + 5NN + 5Ens", "info + essay + fts + 5NN^len + 3Ens + one-by-one (gpt-4)", "k0"]
    rows = render_score_rows([evaluate([MC, C, P], [MC, C, P], run_label=label) for label in labels])
    assert len(rows) == 4 and len({len(row) for row in rows}) == 1
    assert [row[: len(rows[0]) - 32].rstrip() for row in rows] == ["Run", *labels]
    assert rows[0] == render_report(evaluate([MC], [MC], run_label=labels[1])).splitlines()[0]


# Recorded from a seeded mix in which Major Claim occurs in the gold labels but
# is never predicted, so its precision and F1 are 0/0 ratios.
REPORT_JSON_GOLDEN = """{
  "components": 30,
  "config_digest": "0000000000000000000000000000000000000000000000000000000000000000",
  "macro_f1": 0.3181818181818182,
  "per_label": {
    "Claim": {
      "f1": 0.4545454545454546,
      "precision": 0.38461538461538464,
      "recall": 0.5555555555555556,
      "support": 9
    },
    "MajorClaim": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 6
    },
    "Premise": {
      "f1": 0.5,
      "precision": 0.47058823529411764,
      "recall": 0.5333333333333333,
      "support": 15
    }
  },
  "run_label": "info + essay + 5NN + 5Ens"
}"""

REPORT_TEXT_GOLDEN = """\
Run                                           MC       C       P      F1
info + essay + 5NN + 5Ens                  0.000   0.455   0.500   0.318

class          precision    recall        f1   support
Major Claim       0.0000    0.0000    0.0000         6
Claim             0.3846    0.5556    0.4545         9
Premise           0.4706    0.5333    0.5000        15
macro F1: 0.3182 over 30 components"""


def test_report_bytes_are_pinned():
    rng = Random(2024)
    gold = [rng.choice(LABELS) for _ in range(30)]
    pred = [rng.choice((C, P)) for _ in gold]
    assert set(gold) == set(LABELS) and MC not in pred
    report = evaluate(pred, gold, run_label="info + essay + 5NN + 5Ens", config_digest="0" * 64)
    assert json.dumps(report.to_dict(), sort_keys=True, indent=2) == REPORT_JSON_GOLDEN
    assert render_report(report) == REPORT_TEXT_GOLDEN
