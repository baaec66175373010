"""Per-class precision/recall/F1 and macro F1 over the three component classes.

The macro average always runs over exactly Major Claim, Claim, and Premise,
whether or not a class occurs in the gold labels, matching the fixed
three-column report shape. All 0/0 ratios resolve to 0.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .corpus import LABELS, Corpus, Label, Split
from .ensemble import PredictionRecord
from .errors import AtcError


class LengthMismatch(AtcError):
    """Prediction and gold sequences differ in length."""


class EmptyEvaluation(AtcError):
    """Cannot evaluate zero components."""


class SplitViolation(AtcError):
    """A prediction record refers to an essay outside the test split."""


class MissingEssay(AtcError):
    """A prediction record refers to an essay absent from the corpus."""


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class EvaluationReport(NamedTuple):
    per_label: Mapping[Label, ClassMetrics]
    macro_f1: float
    components: int
    run_label: str | None = None
    config_digest: str | None = None

    def to_dict(self) -> dict:
        return {
            "run_label": self.run_label,
            "config_digest": self.config_digest,
            "per_label": {
                label.value: {
                    "precision": self.per_label[label].precision,
                    "recall": self.per_label[label].recall,
                    "f1": self.per_label[label].f1,
                    "support": self.per_label[label].support,
                }
                for label in LABELS
            },
            "macro_f1": self.macro_f1,
            "components": self.components,
        }


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def evaluate(
    pred: Sequence[Label],
    gold: Sequence[Label],
    run_label: str | None = None,
    config_digest: str | None = None,
) -> EvaluationReport:
    """Score predictions against gold labels of equal non-zero length."""
    if len(pred) != len(gold):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(gold)} gold labels")
    if not gold:
        raise EmptyEvaluation("nothing to evaluate")
    pairs = Counter(zip(gold, pred))
    per_label: dict[Label, ClassMetrics] = {}
    for label in LABELS:
        support = sum(n for (g, _), n in pairs.items() if g is label)
        predicted = sum(n for (_, p), n in pairs.items() if p is label)
        precision = _safe_div(pairs[label, label], predicted)
        recall = _safe_div(pairs[label, label], support)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_label[label] = ClassMetrics(precision, recall, f1, support)
    macro = sum(per_label[label].f1 for label in LABELS) / len(LABELS)
    return EvaluationReport(
        per_label=per_label,
        macro_f1=macro,
        components=len(gold),
        run_label=run_label,
        config_digest=config_digest,
    )


def aggregate_runs(
    records: Sequence[PredictionRecord],
    corpus: Corpus,
    run_label: str | None = None,
    config_digest: str | None = None,
) -> EvaluationReport:
    """Flatten test-split records into one pred/gold pair and evaluate it."""
    by_id = corpus.by_id()
    preds: list[Label] = []
    golds: list[Label] = []
    for record in records:
        essay = by_id.get(record.essay_id)
        if essay is None:
            raise MissingEssay(f"record for unknown essay {record.essay_id!r}")
        if corpus.split[record.essay_id] is not Split.TEST:
            raise SplitViolation(f"{record.essay_id} is not in the test split")
        if len(record.final) != essay.m:
            raise LengthMismatch(
                f"{record.essay_id}: record has {len(record.final)} labels, essay has {essay.m}"
            )
        preds.extend(record.final)
        golds.extend(component.gold_label for component in essay.components)
    return evaluate(preds, golds, run_label=run_label, config_digest=config_digest)


def render_score_rows(reports: Sequence[EvaluationReport]) -> list[str]:
    """A header, then one row per report: its run label and its MC / C / P / macro F1.

    The run column is 40 characters wide, or as wide as the longest label, so
    every score stays under its heading.
    """
    run_labels = [report.run_label or "-" for report in reports]
    width = max([40, *map(len, run_labels)])
    rows = [f"{'Run':<{width}}{'MC':>8}{'C':>8}{'P':>8}{'F1':>8}"]
    for run_label, report in zip(run_labels, reports):
        f1 = {label: report.per_label[label].f1 for label in LABELS}
        rows.append(
            f"{run_label:<{width}}"
            f"{f1[Label.MAJOR_CLAIM]:>8.3f}{f1[Label.CLAIM]:>8.3f}"
            f"{f1[Label.PREMISE]:>8.3f}{report.macro_f1:>8.3f}"
        )
    return rows


def render_report(report: EvaluationReport) -> str:
    """Human-readable table in MC / C / P / F1 column order plus details."""
    lines = [*render_score_rows([report]), ""]
    lines.append(f"{'class':<14}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    for label in LABELS:
        m = report.per_label[label]
        lines.append(
            f"{label.display_name:<14}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}{m.support:>10d}"
        )
    lines.append(f"macro F1: {report.macro_f1:.4f} over {report.components} components")
    return "\n".join(lines)
