"""Prompt construction and response parsing for component classification.

A prompt is assembled from fixed instructions, an optional task-information
block (fixed class definitions plus train-set label statistics), demonstration
essays rendered as labeled component lists, and the query essay. The model
answers one line per component in the canonical ``<index>. <label>`` format;
``parse_response`` inverts that format tolerantly.

Two inference modes share the same context layout: all-at-once asks for every
component of the query essay in a single call, one-by-one asks for a single
target component per call. ``build_prompt`` renders an essay's info block,
query section and instructions once and returns one :class:`Prompt` per
ensembling round: rounds differ only in their demonstrations, and a round's
one-by-one requests only in the closing instruction. ``classify_essay`` asks
one built prompt's calls, retries malformed answers and parses them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import LABELS, Corpus, Essay, Label
from .errors import AtcError
from .features import extract_structural, render_featxt
from .gateway import ChatRequest, Gateway

if TYPE_CHECKING:
    from .ensemble import IclConfig


class MissingInfoBlock(AtcError):
    """Prompt config asks for the info block but none was provided."""


class MissingDemonstrations(AtcError):
    """All-at-once prompts need at least one demonstration essay."""


class CountMismatch(AtcError):
    """Response did not contain exactly the expected number of label lines."""


class UnknownLabel(AtcError):
    """A response line holds no recognizable class name."""


class Unparseable(AtcError):
    """The model never produced a parseable answer within the retry budget."""


class PromptMode(Enum):
    ALL_AT_ONCE = "all_at_once"
    ONE_BY_ONE = "one_by_one"


@dataclass(frozen=True)
class PromptConfig:
    include_info: bool = False
    include_essay: bool = False
    include_fts: bool = False
    mode: PromptMode = PromptMode.ALL_AT_ONCE


@dataclass(frozen=True)
class InfoBlock:
    train_stats: Mapping[Label, int]


@dataclass(frozen=True)
class Prompt:
    """One round's chat calls, one user text each, and how their answers are read.

    Every answer must hold ``answer_lines`` label lines; a malformed one is
    asked again with ``reminder`` appended to its user text.
    """

    system_text: str
    user_texts: tuple[str, ...]
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
_LABEL_ALIASES = {
    "major claim": Label.MAJOR_CLAIM,
    "majorclaim": Label.MAJOR_CLAIM,
    "claim": Label.CLAIM,
    "premise": Label.PREMISE,
}


def build_info_block(corpus: Corpus) -> InfoBlock:
    """Info block with the label counts of the train split."""
    counts = Counter(c.gold_label for e in corpus.train_essays() for c in e.components)
    return InfoBlock(train_stats={label: counts[label] for label in LABELS})


def render_labels(labels: Sequence[Label]) -> str:
    """Canonical answer text: ``1. Major Claim`` etc., one line per label."""
    return "\n".join(f"{i}. {label.display_name}" for i, label in enumerate(labels, start=1))


def _render_info(info: InfoBlock) -> str:
    lines = [INFO_HEADER, "Class definitions:"]
    for label in LABELS:
        lines.append(f"{label.display_name}: {CLASS_DEFINITIONS[label]}")
    counts = ", ".join(
        f"{label.display_name}: {info.train_stats[label]}" for label in LABELS
    )
    lines.append(f"Argument component counts in the training set: {counts}.")
    return "\n".join(lines)


def _render_demos(demos: Sequence[Essay]) -> str:
    sections = [DEMO_HEADER]
    for index, essay in enumerate(demos, start=1):
        lines = [f"### Example {index}", f"Title: {essay.title}", "Argument components:"]
        for i, component in enumerate(essay.components, start=1):
            lines.append(f"{i}. {component.text} -> {component.gold_label.display_name}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _render_query(essay: Essay, config: PromptConfig) -> str:
    lines = [QUERY_HEADER, f"Title: {essay.title}"]
    if config.include_essay:
        lines.append("Full text:")
        lines.append(essay.raw_text.rstrip("\n"))
    lines.append(f"Argument components ({essay.m} components):")
    for i, component in enumerate(essay.components, start=1):
        lines.append(f"{i}. {component.text}")
        if config.include_fts:
            lines.append(render_featxt(extract_structural(essay, component)))
    return "\n".join(lines)


def build_prompt(
    query: Essay,
    demo_sets: Sequence[Sequence[Essay]],
    config: PromptConfig,
    info: InfoBlock | None = None,
) -> tuple[Prompt, ...]:
    """Assemble every round's chat requests for ``query``: one prompt per demo set.

    The info block, the query section and the instructions are rendered once.
    Each user text is a round's context (info block, that round's
    demonstrations, query section) followed by one call's instruction: a
    single text in all-at-once mode, and in one-by-one mode m texts, the j-th
    asking about component j.
    """
    if config.include_info and info is None:
        raise MissingInfoBlock("prompt config includes the info block but none was given")
    if config.mode is PromptMode.ALL_AT_ONCE and not all(demo_sets):
        raise MissingDemonstrations("all-at-once prompts need at least one demonstration")

    m = query.m
    if config.mode is PromptMode.ALL_AT_ONCE:
        system_text, instructions = SYSTEM_ALL_AT_ONCE, [ALL_AT_ONCE_INSTRUCTION.format(m=m)]
        answer_lines, reminder = m, FORMAT_REMINDER.format(m=m)
    else:
        system_text = SYSTEM_ONE_BY_ONE
        instructions = [ONE_BY_ONE_INSTRUCTION.format(j=j, m=m) for j in range(1, m + 1)]
        answer_lines, reminder = 1, ONE_BY_ONE_REMINDER
    info_section = _render_info(info) + "\n\n" if config.include_info else ""
    query_section = _render_query(query, config)
    tails = [f"{query_section}\n\n{instruction}" for instruction in instructions]
    prompts = []
    for demos in demo_sets:
        head = info_section + (_render_demos(demos) + "\n\n" if demos else "")
        prompts.append(Prompt(system_text, tuple(head + tail for tail in tails), answer_lines, reminder))
    return tuple(prompts)


def _match_label(core: str) -> Label | None:
    normalized = re.sub(r"\s+", " ", core).strip().strip("\"'").rstrip(".").strip().lower()
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


def classify_essay(
    query: Essay, prompt: Prompt, config: IclConfig, gateway: Gateway
) -> tuple[list[Label], list[str]]:
    """Ask ``prompt``'s calls through the gateway: one label per component of ``query``.

    Each user text is one chat call with the model and temperature of
    ``config`` and at most ``MAX_OUTPUT_TOKENS`` output tokens. A malformed answer is asked again, with the prompt's
    reminder appended, up to ``MAX_RETRIES`` times before :class:`Unparseable`
    is raised. Returns the labels and every raw response text, in request order.
    """
    responses: list[str] = []

    def ask(base_text: str) -> list[Label]:
        user_text = base_text
        last_error: AtcError | None = None
        for _ in range(MAX_RETRIES + 1):
            response = gateway.chat(
                ChatRequest(
                    system_text=prompt.system_text,
                    user_text=user_text,
                    model_name=config.model_name,
                    temperature=config.temperature,
                    max_output_tokens=MAX_OUTPUT_TOKENS,
                )
            )
            responses.append(response.text)
            try:
                return parse_response(response.text, prompt.answer_lines)
            except (CountMismatch, UnknownLabel) as exc:
                last_error = exc
                user_text = base_text + "\n\n" + prompt.reminder
        raise Unparseable(
            f"{query.essay_id}: no parseable answer after {MAX_RETRIES + 1} attempts"
        ) from last_error

    labels = [label for text in prompt.user_texts for label in ask(text)]
    return labels, responses
