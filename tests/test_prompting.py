"""Prompt construction and response parsing."""

from __future__ import annotations

import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from atc_icl.corpus import LABELS, Label
from atc_icl.prompting import (
    ALL_AT_ONCE_INSTRUCTION,
    CLASS_DEFINITIONS,
    ONE_BY_ONE_INSTRUCTION,
    CountMismatch,
    MissingDemonstrations,
    MissingInfoBlock,
    PromptConfig,
    PromptMode,
    UnknownLabel,
    build_info_block,
    build_prompt,
    parse_response,
    render_info,
    render_labels,
)
from conftest import build_essay, user_texts

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
    return render_info({Label.MAJOR_CLAIM: 598, Label.CLAIM: 1202, Label.PREMISE: 3023})


def one_round(query, demos, config, info=None):
    """The prompt of a single round with ``demos``."""
    (prompt,) = build_prompt(query, [demos], config, info)
    return prompt


def test_prompt_structure_counts_demo_sections(park_essay):
    demos = demo_pair()
    config = PromptConfig(include_info=True, include_essay=True)
    prompt = one_round(park_essay, list(demos) + [demos[0], demos[1], demos[0]], config, info_block())
    (user_text,) = user_texts(prompt)
    assert user_text.count("### Example") == 5
    assert "Full text:" in user_text
    assert park_essay.raw_text.rstrip("\n") in user_text
    titles = re.findall(r"### Example (\d+)\nTitle: (.+)", user_text)
    museums, cycling = (d.title for d in demos)
    assert titles == [("1", museums), ("2", cycling), ("3", museums), ("4", cycling), ("5", museums)]


def test_prompt_without_essay_block_omits_full_text(park_essay):
    (user_text,) = user_texts(one_round(park_essay, list(demo_pair()), PromptConfig()))
    assert "Full text:" not in user_text
    # components still listed in document order, numbered 1..m
    for i, component in enumerate(park_essay.components, start=1):
        assert f"{i}. {component.text}" in user_text


def test_prompt_fts_block_follows_each_query_component(park_essay):
    (user_text,) = user_texts(one_round(park_essay, list(demo_pair()), PromptConfig(include_fts=True)))
    lines = user_text.splitlines()
    for i, component in enumerate(park_essay.components, start=1):
        idx = lines.index(f"{i}. {component.text}")
        assert lines[idx + 1].startswith("Is the AC first in its paragraph:")
    (without,) = user_texts(one_round(park_essay, list(demo_pair()), PromptConfig()))
    assert "Is the AC first in its paragraph" not in without


def test_demo_sections_show_gold_labels(park_essay):
    (user_text,) = user_texts(one_round(park_essay, [demo_pair()[0]], PromptConfig()))
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
    texts = user_texts(one_round(park_essay, list(demo_pair()), config))
    assert len(texts) == park_essay.m == 4
    contexts = set()
    for j, text in enumerate(texts, start=1):
        context, instruction = text.rsplit("\n\n", 1)
        assert instruction.startswith(f"Which class is argument component {j} of 4?")
        contexts.add(context)
    assert len(contexts) == 1


@pytest.mark.parametrize("mode", list(PromptMode))
def test_a_rounds_context_is_its_user_texts_up_to_the_instruction(park_essay, mode):
    config = PromptConfig(include_info=True, include_fts=True, mode=mode)
    prompt = one_round(park_essay, list(demo_pair()), config, info_block())
    m = park_essay.m
    if mode is PromptMode.ALL_AT_ONCE:
        assert prompt.instructions == (ALL_AT_ONCE_INSTRUCTION.format(m=m),)
    else:
        assert prompt.instructions == tuple(ONE_BY_ONE_INSTRUCTION.format(j=j, m=m) for j in range(1, m + 1))
    head, query = "".join(prompt.pieces).split("## Query essay\n")
    assert head.startswith("## Task information\n") and "## Demonstration essays\n" in head
    assert query.endswith("\n\n") and "Which class is" not in query and "Classify all" not in query


def test_build_prompt_gives_each_round_the_prompt_of_its_own_demos(park_essay):
    demo1, demo2 = demo_pair()
    demo_sets = [[demo1], [demo2, demo1], []]
    config = PromptConfig(include_info=True, include_fts=True, mode=PromptMode.ONE_BY_ONE)
    prompts = build_prompt(park_essay, demo_sets, config, info_block())
    assert prompts == tuple(one_round(park_essay, demos, config, info_block()) for demos in demo_sets)
    assert len({user_texts(prompt) for prompt in prompts}) == 3


def test_a_rounds_pieces_are_its_context_and_a_memo_renders_each_demo_body_once(park_essay):
    demo1, demo2 = demo_pair()
    demo_sets = [[demo1], [demo2, demo1], []]
    config = PromptConfig(include_info=True, include_fts=True, mode=PromptMode.ONE_BY_ONE)
    bodies = {}
    prompts = build_prompt(park_essay, demo_sets, config, info_block(), bodies)
    assert prompts == build_prompt(park_essay, demo_sets, config, info_block())
    assert list(bodies) == [demo1, demo2]
    info, header, example, body, query = prompts[0].pieces
    assert (info, header, example) == (info_block() + "\n\n", "## Demonstration essays\n\n", "### Example 1\n")
    assert body is bodies[demo1] and body.startswith("Title: ") and body.endswith("\n\n")
    assert query.startswith("## Query essay\n") and prompts[1].pieces[-1] is prompts[2].pieces[-1] is query
    assert prompts[1].pieces[2:6] == ("### Example 1\n", bodies[demo2], "### Example 2\n", body)
    assert prompts[2].pieces == (info, query)
    # A body in the memo is not rendered again, which is why a memo lives for one run only.
    bodies = {demo1: "stale\n\n"}
    (prompt,) = build_prompt(park_essay, [[demo1]], config, info_block(), bodies)
    assert "stale" in "".join(prompt.pieces) and list(bodies) == [demo1]


def test_one_by_one_allows_zero_demos(park_essay):
    config = PromptConfig(mode=PromptMode.ONE_BY_ONE)
    texts = user_texts(one_round(park_essay, [], config))
    assert len(texts) == park_essay.m
    assert all("## Demonstration essays" not in text for text in texts)


def test_prompt_snapshot_is_byte_stable(park_essay):
    config = PromptConfig(include_info=True, include_essay=True, include_fts=True)
    prompt = one_round(park_essay, list(demo_pair()), config, info_block())
    (user_text,) = user_texts(prompt)
    rendered = prompt.system_text + "\n<<<USER>>>\n" + user_text + "\n"
    frozen = (DATA / "prompt_snapshot.txt").read_text(encoding="utf-8")
    assert rendered == frozen


def test_one_by_one_prompt_snapshot_is_byte_stable(park_essay):
    config = PromptConfig(
        include_info=True, include_essay=True, include_fts=True, mode=PromptMode.ONE_BY_ONE
    )
    prompt = one_round(park_essay, list(demo_pair()), config, info_block())
    rendered = prompt.system_text + "".join(
        f"\n<<<USER {j}>>>\n{text}" for j, text in enumerate(user_texts(prompt), start=1)
    ) + "\n"
    assert rendered.encode("utf-8") == (DATA / "prompt_snapshot_one_by_one.txt").read_bytes()


def test_build_info_block_uses_train_stats(small_corpus):
    from atc_icl.corpus import Split, compute_stats

    info = build_info_block(small_corpus)
    counts = compute_stats(small_corpus, Split.TRAIN).label_counts
    assert info == render_info(counts)
    assert info.endswith(", ".join(f"{label.display_name}: {counts[label]}" for label in LABELS) + ".")
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

