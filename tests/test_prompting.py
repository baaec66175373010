"""Prompt construction, response parsing, and the classify loop."""

from __future__ import annotations

import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from atc_icl.corpus import LABELS, Label
from atc_icl.ensemble import IclConfig
from atc_icl.gateway import Gateway, MockChatBackend
from atc_icl.prompting import (
    CLASS_DEFINITIONS,
    FORMAT_REMINDER,
    ONE_BY_ONE_REMINDER,
    CountMismatch,
    InfoBlock,
    MissingDemonstrations,
    MissingInfoBlock,
    PromptConfig,
    PromptMode,
    UnknownLabel,
    Unparseable,
    build_info_block,
    build_prompt,
    classify_essay,
    parse_response,
    render_labels,
)
from atc_icl.selection import SelectionStrategy
from conftest import ScriptedChatBackend, build_essay

DATA = Path(__file__).parent / "data"


def demo_pair():
    demo1 = build_essay(
        "essay900", "Funding museums with city money",
        [
            [("Art matters. ", None), ("public money should fund museums", Label.MAJOR_CLAIM), (".", None)],
            [("For one thing ", None), ("museums teach local history", Label.CLAIM), (". Indeed ", None),
             ("school visits rose last year", Label.PREMISE), (".", None)],
        ],
    )
    demo2 = build_essay(
        "essay901", "Cycling to work in winter",
        [
            [("Hear me out. ", None), ("winter cycling deserves support", Label.MAJOR_CLAIM), (".", None)],
            [("Mainly because ", None), ("gritted lanes keep riders safe", Label.PREMISE), (".", None)],
        ],
    )
    return demo1, demo2


def info_block():
    return InfoBlock(train_stats={Label.MAJOR_CLAIM: 598, Label.CLAIM: 1202, Label.PREMISE: 3023})


def one_round(query, demos, config, info=None):
    """The prompt of a single round with ``demos``."""
    (prompt,) = build_prompt(query, [demos], config, info)
    return prompt


def classify(query, demos, config, gateway):
    """Ask one round with ``demos`` through ``gateway``, with the default model settings."""
    icl = IclConfig(SelectionStrategy.KRN, k=len(demos), n_rounds=1, prompt=config, run_seed=0)
    return classify_essay(query, one_round(query, demos, config), icl, gateway)


def test_prompt_structure_counts_demo_sections(park_essay):
    demos = demo_pair()
    config = PromptConfig(include_info=True, include_essay=True)
    prompt = one_round(park_essay, list(demos) + [demos[0], demos[1], demos[0]], config, info_block())
    (user_text,) = prompt.user_texts
    assert user_text.count("### Example") == 5
    assert "Full text:" in user_text
    assert park_essay.raw_text.rstrip("\n") in user_text
    titles = re.findall(r"### Example (\d+)\nTitle: (.+)", user_text)
    museums, cycling = (d.title for d in demos)
    assert titles == [("1", museums), ("2", cycling), ("3", museums), ("4", cycling), ("5", museums)]


def test_prompt_without_essay_block_omits_full_text(park_essay):
    (user_text,) = one_round(park_essay, list(demo_pair()), PromptConfig()).user_texts
    assert "Full text:" not in user_text
    # components still listed in document order, numbered 1..m
    for i, component in enumerate(park_essay.components, start=1):
        assert f"{i}. {component.text}" in user_text


def test_prompt_fts_block_follows_each_query_component(park_essay):
    (user_text,) = one_round(park_essay, list(demo_pair()), PromptConfig(include_fts=True)).user_texts
    lines = user_text.splitlines()
    for i, component in enumerate(park_essay.components, start=1):
        idx = lines.index(f"{i}. {component.text}")
        assert lines[idx + 1].startswith("Is the AC first in its paragraph:")
    (without,) = one_round(park_essay, list(demo_pair()), PromptConfig()).user_texts
    assert "Is the AC first in its paragraph" not in without


def test_demo_sections_show_gold_labels(park_essay):
    (user_text,) = one_round(park_essay, [demo_pair()[0]], PromptConfig()).user_texts
    assert "1. public money should fund museums -> Major Claim" in user_text
    assert "3. school visits rose last year -> Premise" in user_text


def test_missing_info_block_raises(park_essay):
    with pytest.raises(MissingInfoBlock):
        one_round(park_essay, list(demo_pair()), PromptConfig(include_info=True))


def test_all_at_once_requires_demos(park_essay):
    with pytest.raises(MissingDemonstrations):
        one_round(park_essay, [], PromptConfig())


def test_one_by_one_yields_m_texts_that_differ_only_in_the_instruction(park_essay):
    config = PromptConfig(mode=PromptMode.ONE_BY_ONE)
    texts = one_round(park_essay, list(demo_pair()), config).user_texts
    assert len(texts) == park_essay.m == 4
    contexts = set()
    for j, text in enumerate(texts, start=1):
        context, instruction = text.rsplit("\n\n", 1)
        assert instruction.startswith(f"Which class is argument component {j} of 4?")
        contexts.add(context)
    assert len(contexts) == 1


def test_build_prompt_gives_each_round_the_prompt_of_its_own_demos(park_essay):
    demo1, demo2 = demo_pair()
    demo_sets = [[demo1], [demo2, demo1], []]
    config = PromptConfig(include_info=True, include_fts=True, mode=PromptMode.ONE_BY_ONE)
    prompts = build_prompt(park_essay, demo_sets, config, info_block())
    assert prompts == tuple(one_round(park_essay, demos, config, info_block()) for demos in demo_sets)
    assert len({prompt.user_texts for prompt in prompts}) == 3


def test_one_by_one_allows_zero_demos(park_essay):
    config = PromptConfig(mode=PromptMode.ONE_BY_ONE)
    texts = one_round(park_essay, [], config).user_texts
    assert len(texts) == park_essay.m
    assert all("## Demonstration essays" not in text for text in texts)


def test_prompt_snapshot_is_byte_stable(park_essay):
    config = PromptConfig(include_info=True, include_essay=True, include_fts=True)
    prompt = one_round(park_essay, list(demo_pair()), config, info_block())
    (user_text,) = prompt.user_texts
    rendered = prompt.system_text + "\n<<<USER>>>\n" + user_text + "\n"
    frozen = (DATA / "prompt_snapshot.txt").read_text(encoding="utf-8")
    assert rendered == frozen


def test_one_by_one_prompt_snapshot_is_byte_stable(park_essay):
    config = PromptConfig(
        include_info=True, include_essay=True, include_fts=True, mode=PromptMode.ONE_BY_ONE
    )
    prompt = one_round(park_essay, list(demo_pair()), config, info_block())
    rendered = prompt.system_text + "".join(
        f"\n<<<USER {j}>>>\n{text}" for j, text in enumerate(prompt.user_texts, start=1)
    ) + "\n"
    assert rendered.encode("utf-8") == (DATA / "prompt_snapshot_one_by_one.txt").read_bytes()


def test_build_info_block_uses_train_stats(small_corpus):
    from atc_icl.corpus import Split, compute_stats

    info = build_info_block(small_corpus)
    assert info.train_stats == compute_stats(small_corpus, Split.TRAIN).label_counts
    assert set(CLASS_DEFINITIONS) == set(LABELS)


def test_parse_response_spec_examples():
    assert parse_response("1. Major Claim\n2. Premise", 2) == [Label.MAJOR_CLAIM, Label.PREMISE]
    with pytest.raises(CountMismatch):
        parse_response("1. premise", 2)
    assert parse_response("- CLAIM\n- claim\n- Premise", 3) == [Label.CLAIM, Label.CLAIM, Label.PREMISE]


def test_parse_response_tolerances():
    assert parse_response("1) MajorClaim.\n2: major claim\n3. PREMISE", 3) == [
        Label.MAJOR_CLAIM,
        Label.MAJOR_CLAIM,
        Label.PREMISE,
    ]
    assert parse_response("  2.   Claim  \n\n3. Premise\n", 2) == [Label.CLAIM, Label.PREMISE]


def test_parse_response_unknown_label():
    with pytest.raises(UnknownLabel):
        parse_response("1. Premise\n2. banana", 2)
    with pytest.raises(UnknownLabel):
        parse_response("Here are my answers:\n1. Premise", 1)


def test_parse_response_rejects_m_below_one():
    with pytest.raises(ValueError):
        parse_response("1. Premise", 0)


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=150))
def test_render_parse_round_trip(labels):
    # Up to three-digit markers: long essays have more than 99 components.
    assert parse_response(render_labels(labels), len(labels)) == labels


def test_round_trip_thousand_random_sequences():
    rng = Random(2024)
    for _ in range(1000):
        labels = [rng.choice(LABELS) for _ in range(rng.randint(1, 25))]
        assert parse_response(render_labels(labels), len(labels)) == labels


def gold_of(essay):
    return [c.gold_label for c in essay.components]


def test_classify_essay_echo(park_essay):
    gateway = Gateway(chat_backend=ScriptedChatBackend([render_labels(gold_of(park_essay))]))
    labels, responses = classify(park_essay, list(demo_pair()), PromptConfig(), gateway)
    assert labels == gold_of(park_essay)
    assert len(responses) == 1


def test_classify_essay_retries_then_succeeds(park_essay):
    gold = render_labels(gold_of(park_essay))
    gateway = Gateway(chat_backend=ScriptedChatBackend(["not a label list", gold]))
    labels, responses = classify(park_essay, list(demo_pair()), PromptConfig(), gateway)
    assert labels == gold_of(park_essay)
    assert len(responses) == 2


def test_classify_essay_retry_appends_reminder(park_essay):
    seen = []

    def responder(request):
        seen.append(request.user_text)
        return "garbage" if len(seen) == 1 else render_labels(gold_of(park_essay))

    gateway = Gateway(chat_backend=MockChatBackend(responder=responder))
    classify(park_essay, list(demo_pair()), PromptConfig(), gateway)
    assert "Reminder:" not in seen[0]
    assert "Reminder:" in seen[1]


def test_all_at_once_retry_text_is_unchanged(park_essay):
    seen = []

    def responder(request):
        seen.append(request.user_text)
        return "garbage" if len(seen) == 1 else render_labels(gold_of(park_essay))

    demos = list(demo_pair())
    classify(park_essay, demos, PromptConfig(), Gateway(chat_backend=MockChatBackend(responder=responder)))
    (base,) = one_round(park_essay, demos, PromptConfig()).user_texts
    assert seen == [base, base + "\n\nReminder: respond with exactly 4 lines, one per component, in the format "
                    "'<index>. <label>', where <label> is 'Major Claim', 'Claim', or 'Premise'. "
                    "Output nothing else."]


def test_one_by_one_retry_asks_for_the_label_alone(park_essay):
    gold = gold_of(park_essay)
    seen = []

    def responder(request):
        seen.append(request.user_text)
        j = int(re.search(r"component (\d+) of", request.user_text).group(1))
        return "garbage" if len(seen) == 1 else gold[j - 1].display_name

    config = PromptConfig(mode=PromptMode.ONE_BY_ONE)
    gateway = Gateway(chat_backend=MockChatBackend(responder=responder))
    labels, responses = classify(park_essay, [], config, gateway)
    assert labels == gold
    assert len(responses) == park_essay.m + 1
    first = one_round(park_essay, [], config).user_texts[0]
    assert seen[:2] == [first, first + "\n\n" + ONE_BY_ONE_REMINDER]
    assert ONE_BY_ONE_REMINDER.startswith(FORMAT_REMINDER.split("{")[0])
    assert "lines" not in ONE_BY_ONE_REMINDER and "<index>" not in ONE_BY_ONE_REMINDER


def test_classify_essay_unparseable_after_budget(park_essay):
    backend = MockChatBackend(responder=lambda request: "always garbage")
    gateway = Gateway(chat_backend=backend)
    with pytest.raises(Unparseable):
        classify(park_essay, list(demo_pair()), PromptConfig(), gateway)
    assert backend.calls == 3  # initial attempt plus two retries


def test_classify_essay_one_by_one(park_essay):
    gold = gold_of(park_essay)

    def responder(request):
        j = int(re.search(r"component (\d+) of", request.user_text).group(1))
        return gold[j - 1].display_name

    backend = MockChatBackend(responder=responder)
    gateway = Gateway(chat_backend=backend)
    config = PromptConfig(mode=PromptMode.ONE_BY_ONE)
    labels, responses = classify(park_essay, list(demo_pair()), config, gateway)
    assert labels == gold
    assert backend.calls == park_essay.m
    assert len(responses) == park_essay.m
