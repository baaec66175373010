"""Structural and contextual features of argument components.

The structural features (first/last in paragraph, introduction/conclusion
membership) render into a fixed four-sentence yes/no text block that can be
injected into prompts or fine-tuning records. The contextual feature is the
complete sentence covering the component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import ArgumentComponent, Essay, Span
from .errors import AtcError


class ForeignComponent(AtcError):
    """The component does not belong to the essay it was paired with."""


# Tokens that end with a period but do not close a sentence.
ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "etc.", "cf.", "vs.", "st.", "no.", "fig.",
        "mr.", "mrs.", "ms.", "dr.", "prof.", "jr.", "sr.",
    }
)

_CLOSERS = "\"'”’)]"

FEATXT_TEMPLATE = (
    "Is the AC first in its paragraph: {first}. "
    "Is the AC last in its paragraph: {last}. "
    "Is the AC in the introduction of the essay: {intro}. "
    "Is the AC in the conclusion of the essay: {concl}."
)


@dataclass(frozen=True)
class StructuralFeatures:
    is_first_in_paragraph: bool
    is_last_in_paragraph: bool
    in_introduction: bool
    in_conclusion: bool
    paragraph_number: int  # 1-based


def _is_abbreviation(text: str, period_index: int) -> bool:
    k = period_index
    while k > 0 and not text[k - 1].isspace():
        k -= 1
    return text[k : period_index + 1].lower() in ABBREVIATIONS


def segment_sentences(text: str) -> list[Span]:
    """Split ``text`` into sentence spans.

    A boundary falls after '.', '!' or '?' (plus any closing quotes or
    brackets) when followed by whitespace or end of text, unless the token is
    a known abbreviation. Spans exclude surrounding whitespace; trailing text
    without terminal punctuation forms a final sentence.
    """
    spans: list[Span] = []
    start: int | None = None
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if start is None and not ch.isspace():
            start = i
        if start is not None and ch in ".!?":
            j = i + 1
            while j < n and text[j] in _CLOSERS:
                j += 1
            at_boundary = j >= n or text[j].isspace()
            if at_boundary and not (ch == "." and _is_abbreviation(text, i)):
                spans.append(Span(start, j))
                start = None
                i = j
                continue
        i += 1
    if start is not None:
        end = n
        while end > start and text[end - 1].isspace():
            end -= 1
        spans.append(Span(start, end))
    return spans


def _require_member(essay: Essay, component: ArgumentComponent) -> None:
    if component not in essay.components:
        raise ForeignComponent(
            f"component {component.id} is not part of essay {essay.essay_id}"
        )


def extract_structural(essay: Essay, component: ArgumentComponent) -> StructuralFeatures:
    """Positional features of the component within its essay.

    The introduction is the first body paragraph and the conclusion the last;
    for a single-paragraph essay both flags are true (degenerate case).
    """
    _require_member(essay, component)
    siblings = [c for c in essay.components if c.paragraph_index == component.paragraph_index]
    return StructuralFeatures(
        is_first_in_paragraph=component == siblings[0],
        is_last_in_paragraph=component == siblings[-1],
        in_introduction=component.paragraph_index == 0,
        in_conclusion=component.paragraph_index == len(essay.paragraphs) - 1,
        paragraph_number=component.paragraph_index + 1,
    )


def covering_sentence(essay: Essay, component: ArgumentComponent) -> str:
    """The minimal sentence-bounded expansion of the component span."""
    _require_member(essay, component)
    paragraph = essay.paragraphs[component.paragraph_index]
    paragraph_text = paragraph.slice(essay.raw_text)
    rel_start = component.span.start - paragraph.start
    rel_end = component.span.end - paragraph.start
    covering = [
        s for s in segment_sentences(paragraph_text) if s.start < rel_end and rel_start < s.end
    ]
    if not covering:  # whitespace-only component cannot occur, but stay total
        return paragraph_text
    return essay.raw_text[paragraph.start + covering[0].start : paragraph.start + covering[-1].end]


def render_featxt(features: StructuralFeatures) -> str:
    """Render the four structural flags as the fixed yes/no feature text."""
    yn = lambda flag: "yes" if flag else "no"  # noqa: E731
    return FEATXT_TEMPLATE.format(
        first=yn(features.is_first_in_paragraph),
        last=yn(features.is_last_in_paragraph),
        intro=yn(features.in_introduction),
        concl=yn(features.in_conclusion),
    )
