"""Scripted chat responders that understand the canonical prompt layout.

These power fully offline runs: the gold-echo responder answers every query
with the corpus gold labels (so a correct pipeline must score a perfect
macro F1), the constant responder always answers Premise. Both key
off the query section markers emitted by the prompting module, so they break
loudly if the prompt format drifts.
"""

from __future__ import annotations

import re
from typing import Callable

from .corpus import Corpus, Essay, Label
from .errors import AtcError
from .gateway import ChatRequest
from .prompting import QUERY_HEADER, render_labels

_ALL_AT_ONCE_RE = re.compile(r"Classify all (\d+) argument components")
_ONE_BY_ONE_RE = re.compile(r"Which class is argument component (\d+) of (\d+)\?")
_TITLE_RE = re.compile(r"^Title: (.*)$", re.MULTILINE)

Responder = Callable[[ChatRequest], str]


def _query_section(request: ChatRequest) -> str:
    head, sep, tail = request.user_text.rpartition(QUERY_HEADER)
    if not sep:
        raise ValueError("prompt has no query section")
    return tail


def _query_title(request: ChatRequest) -> str:
    match = _TITLE_RE.search(_query_section(request))
    if match is None:
        raise ValueError("query section has no title line")
    return match.group(1)


def gold_echo_responder(corpus: Corpus) -> Responder:
    """Answer with the query essay's gold labels in the canonical format.

    The query essay is found by its title, so two essays of one title are refused.
    """
    by_title: dict[str, Essay] = {}
    for essay in corpus.essays:
        other = by_title.setdefault(essay.title, essay)
        if other is not essay:
            raise AtcError(
                f"essays {other.essay_id} and {essay.essay_id} share the title {essay.title!r},"
                f" so gold_echo cannot tell their prompts apart"
            )

    def respond(request: ChatRequest) -> str:
        essay = by_title.get(_query_title(request))
        if essay is None:
            raise ValueError("query title not found in corpus")
        gold = [component.gold_label for component in essay.components]
        single = _ONE_BY_ONE_RE.search(request.user_text)
        if single:
            return gold[int(single.group(1)) - 1].display_name
        return render_labels(gold)

    return respond


def constant_label_responder() -> Responder:
    """Always answer Premise, matching the expected line count."""

    def respond(request: ChatRequest) -> str:
        if _ONE_BY_ONE_RE.search(request.user_text):
            return Label.PREMISE.display_name
        match = _ALL_AT_ONCE_RE.search(request.user_text)
        if match is None:
            raise ValueError("prompt has no classification instruction")
        m = int(match.group(1))
        return render_labels([Label.PREMISE] * m)

    return respond
