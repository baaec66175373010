"""Supervised fine-tuning data export in chat-record JSONL.

One record per argument component, in document order within an essay and
with essays ordered by id. The feature-enriched variant injects the essay
title, the covering sentence, the paragraph number, and the four yes/no
structural feature sentences into the user turn; the plain variant carries
the component text alone. The assistant turn is always the gold class name.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import ArgumentComponent, Corpus, Essay, Split
from .errors import AtcError
from .features import extract_contextual, extract_structural, render_featxt


class IoFailure(AtcError):
    """Writing the export file failed."""


SYSTEM_TEXT = (
    "Classify the given argument component of a persuasive essay as "
    "'Major Claim', 'Claim', or 'Premise'. Respond with only the class name."
)


def build_user_text(essay: Essay, component: ArgumentComponent, featxt: bool) -> str:
    if not featxt:
        return component.text
    contextual = extract_contextual(essay, component)
    structural = extract_structural(essay, component)
    return "\n".join(
        [
            f"Essay title: {contextual.essay_title}",
            f"Sentence: {contextual.covering_sentence}",
            f"Paragraph number: {structural.paragraph_number}",
            render_featxt(structural),
            f"Argument component: {component.text}",
        ]
    )


def build_record(essay: Essay, component: ArgumentComponent, featxt: bool) -> dict:
    return {
        "messages": [
            {"role": "system", "content": SYSTEM_TEXT},
            {"role": "user", "content": build_user_text(essay, component, featxt)},
            {"role": "assistant", "content": component.gold_label.display_name},
        ]
    }


def export(corpus: Corpus, split: Split, featxt: bool, out: Path | str) -> int:
    """Write one JSONL chat record per component of the split; returns the count."""
    essays = sorted(corpus.essays_in(split), key=lambda e: e.essay_id)
    count = 0
    try:
        with open(out, "w", encoding="utf-8") as handle:
            for essay in essays:
                for component in essay.components:
                    record = build_record(essay, component, featxt)
                    handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                    count += 1
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc}") from exc
    return count
