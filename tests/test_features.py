"""Structural/contextual feature extraction and sentence segmentation."""

from __future__ import annotations

import itertools

from hypothesis import example, given, strategies as st

from atc_icl.corpus import Label
from atc_icl.features import (
    FEATXT_TEMPLATE,
    StructuralFeatures,
    covering_sentence,
    extract_structural,
    render_featxt,
    segment_sentences,
)
from conftest import build_essay


def test_sole_component_in_intro(park_essay):
    features = extract_structural(park_essay, 0)
    assert features.is_first_in_paragraph and features.is_last_in_paragraph
    assert features.in_introduction and not features.in_conclusion
    assert features.paragraph_number == 1


def test_first_and_last_among_paragraph_siblings(park_essay):
    second = extract_structural(park_essay, 1)
    third = extract_structural(park_essay, 2)
    assert second.is_first_in_paragraph and not second.is_last_in_paragraph
    assert not third.is_first_in_paragraph and third.is_last_in_paragraph
    assert not second.in_introduction and not second.in_conclusion


def test_second_of_two_components_in_last_paragraph():
    essay = build_essay(
        "essayZ",
        "Two in the closing paragraph",
        [
            [("Opening claim stands. ", None), ("the opening claim stands", Label.MAJOR_CLAIM), (".", None)],
            [("To close: ", None), ("first closing point", Label.CLAIM), (". And ", None),
             ("second closing point", Label.PREMISE), (".", None)],
        ],
    )
    features = extract_structural(essay, essay.m - 1)
    assert not features.is_first_in_paragraph
    assert features.is_last_in_paragraph
    assert not features.in_introduction
    assert features.in_conclusion


def test_single_paragraph_essay_is_both_intro_and_conclusion():
    essay = build_essay(
        "essayY", "One paragraph only",
        [[("Setup words. ", None), ("the only point made", Label.CLAIM), (".", None)]],
    )
    features = extract_structural(essay, 0)
    assert features.in_introduction and features.in_conclusion


def sibling_scan(essay, component):
    """Features by a scan over the component's paragraph: the oracle for the rule of its two neighbours."""
    siblings = [c for c in essay.components if c.paragraph_index == component.paragraph_index]
    return StructuralFeatures(
        is_first_in_paragraph=component == siblings[0],
        is_last_in_paragraph=component == siblings[-1],
        in_introduction=component.paragraph_index == 0,
        in_conclusion=component.paragraph_index == len(essay.paragraphs) - 1,
        paragraph_number=component.paragraph_index + 1,
    )


def test_exactly_one_first_and_one_last_per_paragraph(synth_corpus):
    for essay in synth_corpus.essays[::29]:
        flags = [extract_structural(essay, i) for i in range(essay.m)]
        assert flags == [sibling_scan(essay, c) for c in essay.components]
        by_paragraph = itertools.groupby(flags, key=lambda f: f.paragraph_number)
        for _, group in by_paragraph:
            members = list(group)
            assert sum(f.is_first_in_paragraph for f in members) == 1
            assert sum(f.is_last_in_paragraph for f in members) == 1


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
@example([1])  # one paragraph of one component
@example([3])  # one paragraph of several
@example([1, 0, 2, 1])  # one-component paragraphs around an empty one
def test_a_components_features_from_its_neighbours_are_those_of_a_paragraph_scan(counts):
    paragraphs = [
        [("Lead words. ", None),
         *[segment for j in range(count) for segment in ((f"point {p} {j}", Label.PREMISE), (". ", None))]]
        for p, count in enumerate(counts)
    ]
    essay = build_essay("essayH", "Generated layout", paragraphs)
    assert essay.m == sum(counts) and len(essay.paragraphs) == len(counts)
    for index, component in enumerate(essay.components):
        assert extract_structural(essay, index) == sibling_scan(essay, component)
        assert component.text in covering_sentence(essay, index)


def test_render_featxt_exact_wording():
    features = StructuralFeatures(True, False, True, False, paragraph_number=1)
    assert render_featxt(features) == (
        "Is the AC first in its paragraph: yes. "
        "Is the AC last in its paragraph: no. "
        "Is the AC in the introduction of the essay: yes. "
        "Is the AC in the conclusion of the essay: no."
    )


def test_render_featxt_all_no_and_mixed():
    assert render_featxt(StructuralFeatures(False, False, False, False, 2)) == FEATXT_TEMPLATE.format(
        first="no", last="no", intro="no", concl="no"
    )
    assert render_featxt(StructuralFeatures(True, True, False, True, 3)) == FEATXT_TEMPLATE.format(
        first="yes", last="yes", intro="no", concl="yes"
    )


def test_render_featxt_injective_on_flags():
    rendered = {
        render_featxt(StructuralFeatures(a, b, c, d, 1))
        for a in (True, False) for b in (True, False)
        for c in (True, False) for d in (True, False)
    }
    assert len(rendered) == 16


def test_segment_two_sentences():
    spans = segment_sentences("A. B!")
    assert [(s.start, s.end) for s in spans] == [(0, 2), (3, 5)]


def test_segment_abbreviation_guard():
    assert len(segment_sentences("e.g. apples")) == 1
    assert len(segment_sentences("Ask Dr. Stone about it. Then decide.")) == 2


def test_segment_handles_quotes_and_question_marks():
    spans = segment_sentences('She said "stop." Then what? Nothing happened')
    text = 'She said "stop." Then what? Nothing happened'
    assert [text[s.start:s.end] for s in spans] == ['She said "stop."', "Then what?", "Nothing happened"]


@given(st.text(alphabet=st.sampled_from(list("abc .!?\n\"e.g")), max_size=80))
def test_segment_spans_are_ordered_disjoint_and_cover_non_whitespace(text):
    spans = segment_sentences(text)
    previous_end = -1
    for span in spans:
        assert span.start > previous_end
        previous_end = span.end
        assert 0 <= span.start < span.end <= len(text)
    covered = set()
    for span in spans:
        covered.update(range(span.start, span.end))
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


def test_covering_sentence_equals_full_sentence_with_punctuation(park_essay):
    # AC text is a complete segmenter sentence minus the period.
    assert covering_sentence(park_essay, 0) == "City parks should stay open at night."


def test_covering_sentence_for_embedded_component(park_essay):
    sentence = covering_sentence(park_essay, 2)
    assert sentence == "Parks calm busy minds, and they cost little to keep open."
    assert park_essay.components[2].text in sentence


def test_covering_sentence_spanning_two_sentences():
    essay = build_essay(
        "essayW", "Boundary crossing",
        [[("Costs ", None), ("fall. Benefits rise", Label.PREMISE), (" quickly.", None)]],
    )
    sentence = covering_sentence(essay, 0)
    assert sentence == "Costs fall. Benefits rise quickly."
    assert essay.components[0].text in sentence
