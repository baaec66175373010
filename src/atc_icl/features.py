"""Structural and contextual features of argument components.

The structural features (first/last in paragraph, introduction/conclusion
membership) render into a fixed four-sentence yes/no text block that can be
injected into prompts or fine-tuning records. The contextual feature is the
complete sentence covering the component. Both take an essay and the
position of one of its components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Essay, Span


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


def extract_structural(essay: Essay, index: int) -> StructuralFeatures:
    """Positional features of the essay's component at ``index``, counted from 0.

    Components are sorted by span start, so the components of a paragraph are
    adjacent: a component is first (last) in its paragraph unless the one
    before (after) it shares that paragraph. The introduction is the first
    body paragraph and the conclusion the last; for a single-paragraph essay
    both flags are true (degenerate case).
    """
    components = essay.components
    paragraph = components[index].paragraph_index
    return StructuralFeatures(
        is_first_in_paragraph=index == 0 or components[index - 1].paragraph_index != paragraph,
        is_last_in_paragraph=index == len(components) - 1 or components[index + 1].paragraph_index != paragraph,
        in_introduction=paragraph == 0,
        in_conclusion=paragraph == len(essay.paragraphs) - 1,
        paragraph_number=paragraph + 1,
    )


def covering_sentence(essay: Essay, index: int) -> str:
    """The minimal sentence-bounded expansion of the span of the essay's component at ``index``."""
    component = essay.components[index]
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
