"""Corpus parsing, split handling, and statistics."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from atc_icl.corpus import (
    EmptyText,
    Label,
    MalformedAnnotation,
    MissingPair,
    Span,
    SplitMismatch,
    compute_stats,
    load_corpus,
    parse_essay,
    read_split_file,
    Split,
)
from atc_icl.errors import AtcError
from atc_icl.synth import SPLIT_FILE_NAME
from conftest import PARK_ANN, PARK_TEXT, build_essay_files, write_corpus_dir

#: Corpus.digest of the park fixture corpus, and of synth.small_shape(12, 8) at seed 7 (the small_dir fixture).
PARK_CORPUS_DIGEST = "4b993202a0ef75076789cf1d03abe2e764de0e6184fbe13b6f35eed7a1c3b854"
SMALL_CORPUS_DIGEST = "ea906ebfa1663868798cbc1c8b6a0cd4ef749e78f6084708661b5b3a2f59e0c9"


def exactly(message: str) -> str:
    """A ``match=`` pattern that accepts ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def reference_digest(root: Path, split_file: Path) -> str:
    """SHA-256 over each .txt and then its .ann, in file name order, and then the
    split file, each prefixed by its length as 8 big-endian bytes."""
    digest = hashlib.sha256()
    essay_files = [path for txt in sorted(root.glob("*.txt")) for path in (txt, txt.with_suffix(".ann"))]
    for path in [*essay_files, split_file]:
        data = path.read_bytes()
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def test_parse_park_fixture_components(park_essay):
    assert park_essay.title == "Keeping city parks open at night"
    assert park_essay.m == 4
    got = [(c.id, c.span.start, c.span.end, c.gold_label) for c in park_essay.components]
    assert got == [
        ("T1", 62, 98, Label.MAJOR_CLAIM),
        ("T2", 100, 146, Label.CLAIM),
        ("T3", 175, 204, Label.PREMISE),
        ("T4", 216, 240, Label.CLAIM),
    ]
    assert [c.paragraph_index for c in park_essay.components] == [0, 1, 1, 2]


def test_component_text_round_trips_through_span(park_essay):
    for component in park_essay.components:
        assert component.text == component.span.slice(park_essay.raw_text)


def test_paragraphs_are_disjoint_ordered_and_cover_components(park_essay):
    paragraphs = park_essay.paragraphs
    assert len(paragraphs) == 3
    for before, after in zip(paragraphs, paragraphs[1:]):
        assert before.end < after.start
    for component in park_essay.components:
        containing = [
            p for p in paragraphs if p.start <= component.span.start and component.span.end <= p.end
        ]
        assert len(containing) == 1


def test_relation_and_attribute_lines_are_skipped():
    ann = "R1\tsupports Arg1:T3 Arg2:T2\nT1\tMajorClaim 62 98\tCity parks should stay open at night\n"
    essay = parse_essay(PARK_TEXT, ann, "essay001")
    assert essay.m == 1
    assert essay.components[0].gold_label is Label.MAJOR_CLAIM


def test_surface_mismatch_is_malformed():
    ann = "T1\tMajorClaim 62 98\tsomething entirely different indeed!\n"
    message = ("essay001: surface text of T1 does not match raw text slice "
               "('something entirely different indeed!' vs 'City parks should stay open at night')")
    with pytest.raises(MalformedAnnotation, match=exactly(message)):
        parse_essay(PARK_TEXT, ann, "essay001")


@pytest.mark.parametrize(
    "ann, message",
    [
        ("T1\tMajorClaim 62 98\r\n",  # no surface column
         "entity line needs 3 tab-separated fields: 'T1\\tMajorClaim 62 98'"),
        ("T1\tMajorClaim 62\tCity parks\n", "bad entity header 'MajorClaim 62' in T1"),  # missing end offset
        ("T1\tMajorClaim 62 zz\tCity parks\n", "non-integer offsets in T1: 'MajorClaim 62 zz'"),
        ("T1\tMajorClaim 62 61\tCity parks\n", "offsets [62, 61) out of range in T1"),  # inverted span
        ("T1\tMajorClaim 62 9999\tCity parks\n", "offsets [62, 9999) out of range in T1"),
        ("T1\tOpinion 62 98\tCity parks should stay open at night\n", "unknown label 'Opinion' in T1"),
        ("T1\tMajorClaim 62 70;80 98\tCity par\n",  # discontinuous span
         "bad entity header 'MajorClaim 62 70;80 98' in T1"),
        ("T1\tMajorClaim 62 98\tCity parks\tshould stay open at night\n",  # a tab belongs to the surface
         "surface text of T1 does not match raw text slice "
         "('City parks\\tshould stay open at night' vs 'City parks should stay open at night')"),
    ],
)
def test_malformed_entity_lines(ann, message):
    with pytest.raises(MalformedAnnotation, match=exactly(f"essay001: {message}")):
        parse_essay(PARK_TEXT, ann, "essay001")


def test_duplicate_annotation_id_rejected():
    ann = (
        "T1\tMajorClaim 62 98\tCity parks should stay open at night\n"
        "T1\tClaim 100 146\tNight closures reduce access for shift workers\n"
    )
    with pytest.raises(MalformedAnnotation, match=exactly("essay001: duplicate annotation id T1")):
        parse_essay(PARK_TEXT, ann, "essay001")


def test_overlapping_components_rejected():
    ann = (
        "T1\tMajorClaim 62 98\tCity parks should stay open at night\n"
        "T2\tClaim 85 98\topen at night\n"
    )
    with pytest.raises(MalformedAnnotation, match=exactly("essay001: overlapping component spans at T2")):
        parse_essay(PARK_TEXT, ann, "essay001")


def test_component_crossing_paragraphs_rejected():
    text, _ = build_essay_files("Some title", [[("One line here", None)], [("another line", None)]])
    crossing_start = text.index("One line")
    crossing_end = text.index("another line") + len("another")
    surface = text[crossing_start:crossing_end].replace("\n", " ")
    ann = f"T1\tClaim {crossing_start} {crossing_end}\t{surface}\n"
    with pytest.raises(MalformedAnnotation,
                       match=exactly("essayX: component T1 does not lie within a single body paragraph")):
        parse_essay(text, ann, "essayX")


def test_crlf_paragraph_spans_exclude_the_carriage_return():
    text = "A title\r\n\r\nFirst body line. Claim here.\r\nSecond line.\r\n"
    start = text.index("Claim here")
    ann = f"T1\tClaim {start} {start + 10}\tClaim here\r\n"
    essay = parse_essay(text, ann, "essayCR")
    assert essay.title == "A title"
    assert [essay.paragraph_text(i) for i in range(len(essay.paragraphs))] == [
        "First body line. Claim here.", "Second line."]
    assert [(c.id, c.text, c.paragraph_index) for c in essay.components] == [("T1", "Claim here", 0)]


@pytest.mark.parametrize(
    "ann",
    ["T1\tClaim 0 7\tA title\n",  # the title line
     "T1\tClaim 8 10\t  \n"],  # the blank separator line
    ids=["title-line", "blank-line"],
)
def test_component_outside_every_body_paragraph_rejected(ann):
    text = "A title\n  \nA body line. Claim here.\n"
    with pytest.raises(MalformedAnnotation,
                       match=exactly("essayZ: component T1 does not lie within a single body paragraph")):
        parse_essay(text, ann, "essayZ")


def test_empty_text_rejected():
    with pytest.raises(EmptyText, match=exactly("essay001: empty essay text")):
        parse_essay("   \n \n", PARK_ANN, "essay001")


@pytest.mark.parametrize("title_line", ["", " \t", "\r"])
def test_empty_title_rejected(title_line):
    with pytest.raises(EmptyText, match="^essayT: empty title line$"):
        parse_essay(f"{title_line}\n\nA body line. Claim here.\n", "", "essayT")


def test_components_sorted_even_if_ann_is_not():
    ann = (
        "T2\tClaim 100 146\tNight closures reduce access for shift workers\n"
        "T1\tMajorClaim 62 98\tCity parks should stay open at night\n"
    )
    essay = parse_essay(PARK_TEXT, ann, "essay001")
    assert [c.id for c in essay.components] == ["T1", "T2"]


def test_span_validation():
    with pytest.raises(ValueError, match=exactly("invalid span [5, 5)")):
        Span(5, 5)
    with pytest.raises(ValueError, match=exactly("invalid span [-1, 4)")):
        Span(-1, 4)


def test_load_corpus_round_trip(tmp_path):
    essays = {
        "essay001": (PARK_TEXT, PARK_ANN),
        "essay002": build_essay_files(
            "Second topic", [[("All cats nap. ", None), ("cats nap a lot", Label.PREMISE), (".", None)]]
        ),
    }
    root = write_corpus_dir(tmp_path / "corpus", essays, {"essay001": "TRAIN", "essay002": "TEST"})
    corpus = load_corpus(root, root / "train-test-split.csv")
    assert [e.essay_id for e in corpus.essays] == ["essay001", "essay002"]
    assert corpus.split["essay001"] is Split.TRAIN
    assert [e.essay_id for e in corpus.test_essays()] == ["essay002"]


def test_corpus_digest_is_pinned(tmp_path, small_dir):
    park = write_corpus_dir(tmp_path / "park", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    for root, golden in ((park, PARK_CORPUS_DIGEST), (small_dir, SMALL_CORPUS_DIGEST)):
        split_file = root / SPLIT_FILE_NAME
        assert load_corpus(root, split_file).digest == reference_digest(root, split_file) == golden


def test_the_digest_reads_files_in_name_order_and_essays_come_in_id_order(tmp_path):
    """'essay001-b.txt' sorts before 'essay001.txt', but 'essay001' before 'essay001-b'; hidden names count."""
    other = build_essay_files("Second topic", [[("All cats nap. ", None), ("cats nap a lot", Label.PREMISE)]])
    essays = {"essay001": (PARK_TEXT, PARK_ANN), "essay001-b": other, ".essay002": other}
    root = write_corpus_dir(tmp_path / "corpus", essays, dict.fromkeys(essays, "TEST"))
    corpus = load_corpus(root, root / SPLIT_FILE_NAME)
    assert [e.essay_id for e in corpus.essays] == [".essay002", "essay001", "essay001-b"]
    assert corpus.digest == reference_digest(root, root / SPLIT_FILE_NAME)


@pytest.mark.parametrize("kind", ["empty", "missing", "file"])
def test_load_corpus_empty_dir_is_missing_pair(tmp_path, kind):
    root = tmp_path / "corpus"
    if kind == "empty":
        root.mkdir()
    elif kind == "file":
        root.write_text("not a directory", encoding="utf-8")
    with pytest.raises(MissingPair, match=exactly(f"no .txt/.ann essay pairs found under {root}")):
        load_corpus(root, tmp_path / "split.csv")


def test_load_corpus_unpaired_file_is_missing_pair(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "essay001.txt").write_text(PARK_TEXT, encoding="utf-8")
    (root / "essay003.ann").write_text(PARK_ANN, encoding="utf-8")
    with pytest.raises(MissingPair, match=exactly("essays without a .txt/.ann counterpart: essay001, essay003")):
        load_corpus(root, root / "split.csv")


def test_load_corpus_names_a_directory_named_as_an_essay_file(tmp_path):
    root = write_corpus_dir(tmp_path / "corpus", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    (root / "essay000.txt").mkdir()
    (root / "essay000.ann").write_text(PARK_ANN, encoding="utf-8")
    path = root / "essay000.txt"
    with pytest.raises(AtcError, match=exactly(f"cannot read {path}: [Errno 21] Is a directory: '{path}'")):
        load_corpus(root, root / SPLIT_FILE_NAME)


@pytest.mark.parametrize("name", ["essay001.txt", "essay001.ann", "train-test-split.csv"])
def test_load_corpus_names_a_file_that_is_not_utf8(tmp_path, name):
    root = write_corpus_dir(tmp_path / "corpus", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    position = (root / name).stat().st_size
    with open(root / name, "ab") as handle:
        handle.write(b"\xff\xfe")
    message = f"cannot read {root / name}: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    with pytest.raises(AtcError, match=exactly(message)):
        load_corpus(root, root / "train-test-split.csv")


def test_load_corpus_names_a_missing_split_file(tmp_path):
    root = write_corpus_dir(tmp_path / "corpus", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    path = root / "split.csv"
    with pytest.raises(AtcError, match=exactly(f"cannot read {path}: [Errno 2] No such file or directory: '{path}'")):
        load_corpus(root, path)


def test_split_mismatch_both_directions(tmp_path):
    essays = {"essay001": (PARK_TEXT, PARK_ANN), "essay002": (PARK_TEXT, PARK_ANN)}
    root = write_corpus_dir(tmp_path / "corpus", essays, {"essay001": "TRAIN"})
    disagree = "split file and corpus directory disagree"
    with pytest.raises(SplitMismatch, match=exactly(f"{disagree} (in split only: []; on disk only: ['essay002'])")):
        load_corpus(root, root / "train-test-split.csv")

    extra = tmp_path / "extra.csv"
    extra.write_text(
        '"ID";"SET"\n"essay001";"TRAIN"\n"essay002";"TEST"\n"essay003";"TEST"\n', encoding="utf-8"
    )
    with pytest.raises(SplitMismatch, match=exactly(f"{disagree} (in split only: ['essay003']; on disk only: [])")):
        load_corpus(root, extra)


def test_split_file_accepts_comma_and_semicolon(tmp_path):
    semi = tmp_path / "semi.csv"
    semi.write_text('"ID";"SET"\n"essay001";"TRAIN"\n', encoding="utf-8")
    comma = tmp_path / "comma.csv"
    comma.write_text("ID,SET\nessay001,train\n", encoding="utf-8")
    assert read_split_file(semi) == {"essay001": Split.TRAIN}
    assert read_split_file(comma) == {"essay001": Split.TRAIN}
    for ending in ("\r\n", "\r"):
        other = tmp_path / "other.csv"
        other.write_bytes(ending.join(['"ID";"SET"', '"essay001";"TRAIN"', '"essay002";"TEST"', ""]).encode())
        assert read_split_file(other) == {"essay001": Split.TRAIN, "essay002": Split.TEST}


def test_split_file_unknown_value(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text('"ID";"SET"\n"essay001";"DEV"\n', encoding="utf-8")
    with pytest.raises(SplitMismatch, match=f"^{bad}: unknown split value 'DEV' for 'essay001'$"):
        read_split_file(bad)


def test_split_file_row_of_one_column_names_the_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text('"ID";"SET"\n"essay001"\n', encoding="utf-8")
    with pytest.raises(SplitMismatch, match=f"^{bad}: split row needs two columns: \\['essay001'\\]$"):
        read_split_file(bad)


@pytest.mark.parametrize("second", ["TEST", "train"])
def test_split_file_listing_an_essay_twice_is_refused(tmp_path, second):
    bad = tmp_path / "bad.csv"
    bad.write_text(f'"ID";"SET"\n"essay001";"TRAIN"\n"essay002";"TEST"\n"essay001";"{second}"\n', encoding="utf-8")
    with pytest.raises(SplitMismatch, match=f"^{bad}: essay 'essay001' is listed twice, as 'TRAIN' and '{second}'$"):
        read_split_file(bad)


def test_compute_stats_hand_counted(tmp_path):
    root = write_corpus_dir(tmp_path / "corpus", {"essay001": (PARK_TEXT, PARK_ANN)}, {"essay001": "TRAIN"})
    corpus = load_corpus(root, root / "train-test-split.csv")
    stats = compute_stats(corpus)
    # Hand-counted over the fixture text.
    assert stats.essay_count == 1
    assert stats.paragraph_count == 3
    assert stats.sentence_count == 6
    assert stats.token_count == 51
    assert stats.label_counts == {Label.MAJOR_CLAIM: 1, Label.CLAIM: 2, Label.PREMISE: 1}
    assert stats.component_count == 4


def test_compute_stats_single_premise_essay(tmp_path):
    text, ann = build_essay_files(
        "Tiny", [[("Starter words here. ", None), ("evidence backs this", Label.PREMISE), (".", None)]]
    )
    root = write_corpus_dir(tmp_path / "c", {"essay001": (text, ann)}, {"essay001": "TEST"})
    corpus = load_corpus(root, root / "train-test-split.csv")
    stats = compute_stats(corpus)
    assert stats.component_count == 1
    assert stats.label_counts == {Label.MAJOR_CLAIM: 0, Label.CLAIM: 0, Label.PREMISE: 1}
    assert compute_stats(corpus, Split.TRAIN).essay_count == 0


def test_stats_scopes_partition_synth_corpus(synth_corpus):
    full = compute_stats(synth_corpus)
    train = compute_stats(synth_corpus, Split.TRAIN)
    test = compute_stats(synth_corpus, Split.TEST)
    assert train.essay_count == 322
    assert test.essay_count == 80
    for attr in ("essay_count", "paragraph_count", "sentence_count", "token_count", "component_count"):
        assert getattr(train, attr) + getattr(test, attr) == getattr(full, attr)
    for label in Label:
        assert train.label_counts[label] + test.label_counts[label] == full.label_counts[label]


def test_synth_corpus_round_trip_invariant(synth_corpus):
    for essay in synth_corpus.essays[::17]:
        for component in essay.components:
            assert component.text == component.span.slice(essay.raw_text)
            paragraph = essay.paragraphs[component.paragraph_index]
            assert paragraph.start <= component.span.start < component.span.end <= paragraph.end
