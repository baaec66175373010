"""Supervised fine-tuning data export in chat-record JSONL.

One record per argument component, in document order within an essay and
with essays ordered by id. The feature-enriched variant injects the essay
title, the covering sentence, the paragraph number, and the four yes/no
structural feature sentences into the user turn; the plain variant carries
the component text alone. The assistant turn is always the gold class name.
Each record is built from an essay and a component's position in it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import Corpus, Essay, Split
from .errors import AtcError
from .features import covering_sentence, extract_structural, render_featxt
from .gateway import write_atomic


class IoFailure(AtcError):
    """Writing the export file failed."""


SYSTEM_TEXT = (
    "Classify the given argument component of a persuasive essay as "
    "'Major Claim', 'Claim', or 'Premise'. Respond with only the class name."
)


def build_user_text(essay: Essay, index: int, featxt: bool) -> str:
    """The user turn of the record of the essay's component at ``index``, counted from 0."""
    component = essay.components[index]
    if not featxt:
        return component.text
    structural = extract_structural(essay, index)
    return "\n".join(
        [
            f"Essay title: {essay.title}",
            f"Sentence: {covering_sentence(essay, index)}",
            f"Paragraph number: {structural.paragraph_number}",
            render_featxt(structural),
            f"Argument component: {component.text}",
        ]
    )


def build_record(essay: Essay, index: int, featxt: bool) -> dict:
    return {
        "messages": [
            {"role": "system", "content": SYSTEM_TEXT},
            {"role": "user", "content": build_user_text(essay, index, featxt)},
            {"role": "assistant", "content": essay.components[index].gold_label.display_name},
        ]
    }


def export(corpus: Corpus, split: Split, featxt: bool, out: Path | str) -> int:
    """Write one JSONL chat record per component of the split; returns the count.

    The lines stream through :func:`write_atomic`: a failed or cut export leaves ``out`` as it was.
    """
    essays = sorted(corpus.essays_in(split), key=lambda e: e.essay_id)
    lines = (
        (json.dumps(build_record(essay, index, featxt), ensure_ascii=False) + "\n").encode("utf-8")
        for essay in essays
        for index in range(essay.m)
    )
    try:
        write_atomic(Path(out), lines)
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc.strerror or exc}") from exc
    return sum(essay.m for essay in essays)
