"""Prompt construction and response parsing for component classification.

A prompt is assembled from fixed instructions, an optional task-information
block (fixed class definitions plus train-set label statistics), demonstration
essays rendered as labeled component lists, and the query essay. The model
answers one line per component in the canonical ``<index>. <label>`` format;
``parse_response`` inverts that format tolerantly.

Two inference modes share the same context layout: all-at-once asks for every
component of the query essay in a single call, one-by-one asks for a single
target component per call. The info block is rendered once per run by
``build_info_block``. ``build_prompt`` renders an essay's query section and
instructions once and returns one :class:`Prompt` per ensembling round:
rounds differ only in their demonstrations, and a round's one-by-one
requests only in the closing instruction. A round's context comes as its
pieces, and a demonstration essay's body is one piece, which a caller's memo
may keep for a whole run. This module only renders and parses text:
``ensemble.run_ensemble`` asks each round's calls, retries malformed answers
and votes.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from typing import Mapping, MutableMapping, NamedTuple, Sequence

from .corpus import LABELS, Corpus, Essay, Label
from .errors import AtcError
from .features import extract_structural, render_featxt


class MissingInfoBlock(AtcError):
    """Prompt config asks for the info block but none was provided."""


class MissingDemonstrations(AtcError):
    """All-at-once prompts need at least one demonstration essay."""


class CountMismatch(AtcError):
    """Response did not contain exactly the expected number of label lines."""


class UnknownLabel(AtcError):
    """A response line holds no recognizable class name."""


class PromptMode(Enum):
    ALL_AT_ONCE = "all_at_once"
    ONE_BY_ONE = "one_by_one"


class PromptConfig(NamedTuple):
    include_info: bool = False
    include_essay: bool = False
    include_fts: bool = False
    mode: PromptMode = PromptMode.ALL_AT_ONCE


class Prompt(NamedTuple):
    """One round's chat calls and how their answers are read.

    Each call's user text is the round's context, its ``pieces`` joined,
    followed by one of ``instructions``. The pieces are the info section, the
    demonstrations' header, each demonstration's ``### Example i`` line and
    body, and last the query section, the only piece that depends on the
    query essay. Every answer must hold ``answer_lines`` label lines; a
    malformed one is asked again with ``reminder``, which opens with a blank
    line, appended to its instruction.
    """

    system_text: str
    pieces: tuple[str, ...]
    instructions: tuple[str, ...]
    answer_lines: int
    reminder: str


SYSTEM_ALL_AT_ONCE = (
    "You are an expert in argument mining. Each argument component (AC) of a "
    "persuasive essay must be classified as 'Major Claim', 'Claim', or 'Premise'. "
    "Answer with exactly one line per component, in the format '<index>. <label>', "
    "and output nothing else."
)

SYSTEM_ONE_BY_ONE = (
    "You are an expert in argument mining. Each argument component (AC) of a "
    "persuasive essay must be classified as 'Major Claim', 'Claim', or 'Premise'. "
    "Answer with a single line containing only the label of the requested component."
)

INFO_HEADER = "## Task information"
DEMO_HEADER = "## Demonstration essays"
QUERY_HEADER = "## Query essay"
CLASS_DEFINITIONS_HEADER = "Class definitions:"
TRAIN_COUNTS_LINE = "Argument component counts in the training set: {counts}."
EXAMPLE_HEADER = "### Example {i}"
TITLE_LINE = "Title: {title}"
FULL_TEXT_HEADER = "Full text:"
DEMO_COMPONENTS_HEADER = "Argument components:"
QUERY_COMPONENTS_HEADER = "Argument components ({m} components):"

#: One definition per class, after Stab & Gurevych 2017, the corpus source.
CLASS_DEFINITIONS: dict[Label, str] = {
    Label.MAJOR_CLAIM: (
        "The major claim states the author's overall standpoint on the essay topic. It is the root "
        "of the essay's argumentation, typically announced in the introduction and restated in the "
        "conclusion, and every other component ultimately supports or attacks it."
    ),
    Label.CLAIM: (
        "A claim is a controversial statement that takes a side on the topic and directly supports "
        "or attacks the major claim. It is the central component of one argument within the essay "
        "and should not be accepted without further backing."
    ),
    Label.PREMISE: (
        "A premise gives a reason, piece of evidence, or example that underpins or undermines a "
        "claim (or another premise). It captures why the reader should believe the component it "
        "justifies."
    ),
}

ALL_AT_ONCE_INSTRUCTION = (
    "Classify all {m} argument components of the query essay. "
    "Respond with exactly {m} lines, one per component, in the format '<index>. <label>'."
)
ONE_BY_ONE_INSTRUCTION = (
    "Which class is argument component {j} of {m}? "
    "Respond with a single line containing only the label."
)
FORMAT_REMINDER = (
    "Reminder: respond with exactly {m} lines, one per component, in the format "
    "'<index>. <label>', where <label> is 'Major Claim', 'Claim', or 'Premise'. "
    "Output nothing else."
)
ONE_BY_ONE_REMINDER = (
    "Reminder: respond with exactly one line containing only the label, "
    "'Major Claim', 'Claim', or 'Premise'. Output nothing else."
)
#: Times a malformed answer is asked again, with the reminder appended.
MAX_RETRIES = 2
#: Output token limit of every chat request.
MAX_OUTPUT_TOKENS = 1024

_MARKER_RE = re.compile(r"^\s*(?:[-*•]+\s*)?(?:\(?\d+\)?\s*[.):\-]\s*)?")
_SPACE_RE = re.compile(r"\s+")
_LABEL_ALIASES = {
    "major claim": Label.MAJOR_CLAIM,
    "majorclaim": Label.MAJOR_CLAIM,
    "claim": Label.CLAIM,
    "premise": Label.PREMISE,
}


def build_info_block(corpus: Corpus) -> str:
    """The rendered info block, with the label counts of the train split."""
    return render_info(Counter(c.gold_label for e in corpus.train_essays() for c in e.components))


def render_labels(labels: Sequence[Label]) -> str:
    """Canonical answer text: ``1. Major Claim`` etc., one line per label."""
    return "\n".join(f"{i}. {label.display_name}" for i, label in enumerate(labels, start=1))


def render_info(train_stats: Mapping[Label, int]) -> str:
    """The info block: the class definitions and the train-set count of each class."""
    lines = [INFO_HEADER, CLASS_DEFINITIONS_HEADER]
    for label in LABELS:
        lines.append(f"{label.display_name}: {CLASS_DEFINITIONS[label]}")
    counts = ", ".join(f"{label.display_name}: {train_stats[label]}" for label in LABELS)
    lines.append(TRAIN_COUNTS_LINE.format(counts=counts))
    return "\n".join(lines)


def _render_demo_body(essay: Essay) -> str:
    """A demonstration's section after its ``### Example i`` line, and the blank line after it."""
    lines = [TITLE_LINE.format(title=essay.title), DEMO_COMPONENTS_HEADER]
    for i, component in enumerate(essay.components, start=1):
        lines.append(f"{i}. {component.text} -> {component.gold_label.display_name}")
    return "\n".join(lines) + "\n\n"


def _render_query(essay: Essay, config: PromptConfig) -> str:
    lines = [QUERY_HEADER, TITLE_LINE.format(title=essay.title)]
    if config.include_essay:
        lines.append(FULL_TEXT_HEADER)
        lines.append(essay.raw_text.rstrip("\n"))
    lines.append(QUERY_COMPONENTS_HEADER.format(m=essay.m))
    for i, component in enumerate(essay.components):
        lines.append(f"{i + 1}. {component.text}")
        if config.include_fts:
            lines.append(render_featxt(extract_structural(essay, i)))
    return "\n".join(lines)


def round_instructions(m: int, mode: PromptMode) -> tuple[str, ...]:
    """The instructions of one round's calls for a query essay of ``m`` components.

    A single one in all-at-once mode and m in one-by-one mode, the j-th
    asking about component j; none when m is 0.
    """
    if mode is PromptMode.ALL_AT_ONCE:
        return (ALL_AT_ONCE_INSTRUCTION.format(m=m),) if m else ()
    return tuple(ONE_BY_ONE_INSTRUCTION.format(j=j, m=m) for j in range(1, m + 1))


def build_prompt(
    query: Essay,
    demo_sets: Sequence[Sequence[Essay]],
    config: PromptConfig,
    info: str | None = None,
    bodies: MutableMapping[Essay, str] | None = None,
) -> tuple[Prompt, ...]:
    """Assemble every round's chat requests for ``query``: one prompt per demo set.

    ``info`` is the rendered info block (:func:`build_info_block`). The query
    section and the instructions are rendered once. A round's context is the
    info block, that round's demonstrations and the query section, each
    followed by a blank line. Each user text is the context followed by one
    call's instruction (see :func:`round_instructions`).

    ``bodies`` keeps each demonstration essay's rendered body, its
    :class:`Prompt` piece after the ``### Example i`` line, so an essay
    demonstrated in several rounds or for several queries is rendered once.
    It is keyed by the essays themselves. A body follows the prompt texts of
    when it was rendered, so a memo must not outlive the run that made it.
    """
    if config.include_info and info is None:
        raise MissingInfoBlock("prompt config includes the info block but none was given")
    if config.mode is PromptMode.ALL_AT_ONCE and not all(demo_sets):
        raise MissingDemonstrations("all-at-once prompts need at least one demonstration")

    m = query.m
    instructions = round_instructions(m, config.mode)
    if config.mode is PromptMode.ALL_AT_ONCE:
        system_text, answer_lines, reminder = SYSTEM_ALL_AT_ONCE, m, "\n\n" + FORMAT_REMINDER.format(m=m)
    else:
        system_text, answer_lines, reminder = SYSTEM_ONE_BY_ONE, 1, "\n\n" + ONE_BY_ONE_REMINDER
    if bodies is None:
        bodies = {}
    info_pieces = (info + "\n\n",) if config.include_info else ()
    demo_header = DEMO_HEADER + "\n\n"
    example_lines = [EXAMPLE_HEADER.format(i=i) + "\n" for i in range(1, max(map(len, demo_sets), default=0) + 1)]
    query_section = _render_query(query, config) + "\n\n"
    prompts = []
    for demos in demo_sets:
        pieces = [*info_pieces, demo_header] if demos else [*info_pieces]
        for example_line, essay in zip(example_lines, demos):
            body = bodies.get(essay)
            if body is None:
                body = bodies[essay] = _render_demo_body(essay)
            pieces += (example_line, body)
        pieces.append(query_section)
        prompts.append(Prompt(system_text, tuple(pieces), instructions, answer_lines, reminder))
    return tuple(prompts)


def _match_label(core: str) -> Label | None:
    normalized = _SPACE_RE.sub(" ", core).strip().strip("\"'").rstrip(".").strip().lower()
    return _LABEL_ALIASES.get(normalized)


def parse_response(text: str, m: int) -> list[Label]:
    """Parse a model answer into exactly ``m`` labels.

    Tolerates list markers, case differences, and both spellings of the major
    claim. A non-empty line without a recognizable class raises
    :class:`UnknownLabel`; a parseable answer of the wrong length raises
    :class:`CountMismatch`.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    labels: list[Label] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        core = _MARKER_RE.sub("", line, count=1)
        label = _match_label(core)
        if label is None:
            raise UnknownLabel(f"no recognizable class in line {line!r}")
        labels.append(label)
    if len(labels) != m:
        raise CountMismatch(f"expected {m} label lines, found {len(labels)}")
    return labels
