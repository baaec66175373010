"""Persuasive-essay corpus model: brat standoff parsing, splits, statistics.

An essay on disk is a pair ``essayNNN.txt`` / ``essayNNN.ann``. The text file
holds the title on line one, a blank separator line, and one body paragraph
per subsequent line. The annotation file is brat standoff: entity lines
``T<id><TAB><Type> <start> <end><TAB><surface>`` address character offsets
into the raw text file contents. Relation (``R``) and attribute (``A``) lines
are tolerated and ignored; only argument components are modeled here.

Offsets are taken literally, so callers must hand over file contents without
newline translation (read bytes, decode UTF-8).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import AtcError


class MalformedAnnotation(AtcError):
    """An entity line in a .ann file violates the expected shape."""


class EmptyText(AtcError):
    """The essay text file is empty or whitespace-only."""


class MissingPair(AtcError):
    """A corpus directory entry lacks its .txt or .ann counterpart."""


class SplitMismatch(AtcError):
    """The split file and the corpus directory disagree about essay ids."""


class Label(Enum):
    """The three argument component classes.

    ``value`` is the token used in annotation files; ``display_name`` is the
    human-facing spelling used in prompts and exported records. The tie-break
    order used by majority voting follows train-set frequency:
    Premise > Claim > Major Claim.
    """

    MAJOR_CLAIM = "MajorClaim"
    CLAIM = "Claim"
    PREMISE = "Premise"

    @property
    def display_name(self) -> str:
        return "Major Claim" if self is Label.MAJOR_CLAIM else self.value

    @property
    def tie_break_rank(self) -> int:
        """Higher rank wins ties in majority votes (frequency prior)."""
        return {Label.MAJOR_CLAIM: 0, Label.CLAIM: 1, Label.PREMISE: 2}[self]


#: Canonical report order: Major Claim, Claim, Premise.
LABELS: tuple[Label, ...] = (Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE)


@dataclass(frozen=True)
class Span:
    """Half-open character interval ``[start, end)`` into an essay's raw text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def slice(self, text: str) -> str:
        return text[self.start : self.end]

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ArgumentComponent:
    """A labeled argument component, addressed by its span in the raw text."""

    id: str
    span: Span
    text: str
    gold_label: Label
    paragraph_index: int
    ordinal: int


@dataclass(frozen=True)
class Essay:
    essay_id: str
    title: str
    paragraphs: tuple[Span, ...]
    components: tuple[ArgumentComponent, ...]
    raw_text: str

    @property
    def m(self) -> int:
        """Number of argument components."""
        return len(self.components)

    def paragraph_text(self, index: int) -> str:
        return self.paragraphs[index].slice(self.raw_text)


class Split(Enum):
    TRAIN = "TRAIN"
    TEST = "TEST"


class Scope(Enum):
    ALL = "all"
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class Corpus:
    """All essays plus the official train/test split, immutable after load."""

    essays: tuple[Essay, ...]
    split: Mapping[str, Split]

    def essays_in(self, scope: Scope) -> list[Essay]:
        if scope is Scope.ALL:
            return list(self.essays)
        want = Split.TRAIN if scope is Scope.TRAIN else Split.TEST
        return [e for e in self.essays if self.split[e.essay_id] is want]

    def train_essays(self) -> list[Essay]:
        return self.essays_in(Scope.TRAIN)

    def test_essays(self) -> list[Essay]:
        return self.essays_in(Scope.TEST)

    def by_id(self) -> dict[str, Essay]:
        return {e.essay_id: e for e in self.essays}


@dataclass(frozen=True)
class CorpusStats:
    essay_count: int
    paragraph_count: int
    sentence_count: int
    token_count: int
    label_counts: Mapping[Label, int]
    component_count: int

    def to_dict(self) -> dict:
        return {
            "essays": self.essay_count,
            "paragraphs": self.paragraph_count,
            "sentences": self.sentence_count,
            "tokens": self.token_count,
            "components": {label.value: self.label_counts[label] for label in LABELS},
            "components_total": self.component_count,
        }


def _line_spans(text: str) -> list[tuple[int, int]]:
    """Offsets of each newline-delimited line, excluding the newline itself."""
    spans = []
    pos = 0
    for line in text.split("\n"):
        spans.append((pos, pos + len(line)))
        pos += len(line) + 1
    return spans


def _parse_entity_line(line: str, text: str, essay_id: str) -> tuple[str, Span, Label]:
    parts = line.split("\t")
    if len(parts) < 3:
        raise MalformedAnnotation(f"{essay_id}: entity line needs 3 tab-separated fields: {line!r}")
    tid, meta, surface = parts[0], parts[1], "\t".join(parts[2:])
    meta_parts = meta.split(" ")
    if len(meta_parts) != 3:
        raise MalformedAnnotation(f"{essay_id}: bad entity header {meta!r} in {tid}")
    label_token, start_s, end_s = meta_parts
    try:
        label = Label(label_token)
    except ValueError:
        raise MalformedAnnotation(f"{essay_id}: unknown label {label_token!r} in {tid}") from None
    try:
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise MalformedAnnotation(f"{essay_id}: non-integer offsets in {tid}: {meta!r}") from None
    if not (0 <= start < end <= len(text)):
        raise MalformedAnnotation(f"{essay_id}: offsets [{start}, {end}) out of range in {tid}")
    piece = text[start:end]
    # brat replaces newlines in the surface column with spaces.
    if surface != piece and surface != piece.replace("\n", " "):
        raise MalformedAnnotation(
            f"{essay_id}: surface text of {tid} does not match raw text slice "
            f"({surface!r} vs {piece!r})"
        )
    return tid, Span(start, end), label


def parse_essay(text_file_contents: str, ann_file_contents: str, essay_id: str) -> Essay:
    """Build an :class:`Essay` from raw .txt and .ann file contents.

    Entity (``T``) lines become argument components, cross-checked against the
    raw text; all other annotation lines are skipped. Components are sorted by
    span start and assigned dense ordinals.
    """
    text = text_file_contents
    if not text.strip():
        raise EmptyText(f"{essay_id}: empty essay text")

    lines = _line_spans(text)
    title = text[lines[0][0] : lines[0][1]].rstrip("\r")
    paragraphs = []
    for start, end in lines[1:]:
        if end > start and text[start:end].endswith("\r"):
            end -= 1
        if text[start:end].strip():
            paragraphs.append(Span(start, end))

    raw_components = []
    seen_ids = set()
    for raw_line in ann_file_contents.split("\n"):
        line = raw_line.rstrip("\r")
        if not line.strip() or not line.startswith("T"):
            continue
        tid, span, label = _parse_entity_line(line, text, essay_id)
        if tid in seen_ids:
            raise MalformedAnnotation(f"{essay_id}: duplicate annotation id {tid}")
        seen_ids.add(tid)
        raw_components.append((tid, span, label))

    raw_components.sort(key=lambda item: item[1].start)
    components = []
    prev_end = -1
    for ordinal, (tid, span, label) in enumerate(raw_components):
        if span.start < prev_end:
            raise MalformedAnnotation(f"{essay_id}: overlapping component spans at {tid}")
        prev_end = span.end
        paragraph_index = None
        for p_idx, p_span in enumerate(paragraphs):
            if p_span.start <= span.start and span.end <= p_span.end:
                paragraph_index = p_idx
                break
        if paragraph_index is None:
            raise MalformedAnnotation(
                f"{essay_id}: component {tid} does not lie within a single body paragraph"
            )
        components.append(
            ArgumentComponent(
                id=tid,
                span=span,
                text=span.slice(text),
                gold_label=label,
                paragraph_index=paragraph_index,
                ordinal=ordinal,
            )
        )

    return Essay(
        essay_id=essay_id,
        title=title,
        paragraphs=tuple(paragraphs),
        components=tuple(components),
        raw_text=text,
    )


def read_split_file(split_file: Path | str) -> dict[str, Split]:
    """Read the two-column split CSV (``essay_id;SET``), ';' or ',' delimited."""
    content = Path(split_file).read_text(encoding="utf-8")
    first_line = content.splitlines()[0] if content.splitlines() else ""
    delimiter = ";" if first_line.count(";") >= first_line.count(",") else ","
    split: dict[str, Split] = {}
    for row in csv.reader(io.StringIO(content), delimiter=delimiter):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise SplitMismatch(f"split row needs two columns: {row!r}")
        essay_id, value = row[0].strip(), row[1].strip()
        if essay_id.lower() == "id":
            continue  # header row
        try:
            split[essay_id] = Split(value.upper())
        except ValueError:
            raise SplitMismatch(f"unknown split value {value!r} for {essay_id!r}") from None
    return split


def load_corpus(root_dir: Path | str, split_file: Path | str) -> Corpus:
    """Load every .txt/.ann pair under ``root_dir`` and apply the split file."""
    root = Path(root_dir)
    txt_files = sorted(root.glob("*.txt"))
    ann_files = sorted(root.glob("*.ann"))
    txt_ids = {p.stem for p in txt_files}
    ann_ids = {p.stem for p in ann_files}
    if not txt_files and not ann_files:
        raise MissingPair(f"no .txt/.ann essay pairs found under {root}")
    unpaired = sorted(txt_ids.symmetric_difference(ann_ids))
    if unpaired:
        raise MissingPair(f"essays without a .txt/.ann counterpart: {', '.join(unpaired)}")

    essays = []
    for txt_path in txt_files:
        text = txt_path.read_bytes().decode("utf-8")
        ann = (root / (txt_path.stem + ".ann")).read_bytes().decode("utf-8")
        essays.append(parse_essay(text, ann, txt_path.stem))
    essays.sort(key=lambda e: e.essay_id)

    split = read_split_file(split_file)
    disk_ids = {e.essay_id for e in essays}
    missing_on_disk = sorted(set(split) - disk_ids)
    missing_in_split = sorted(disk_ids - set(split))
    if missing_on_disk or missing_in_split:
        raise SplitMismatch(
            f"split file and corpus directory disagree "
            f"(in split only: {missing_on_disk}; on disk only: {missing_in_split})"
        )
    return Corpus(essays=tuple(essays), split=split)


def compute_stats(corpus: Corpus, scope: Scope = Scope.ALL) -> CorpusStats:
    """Corpus statistics over the requested scope.

    Tokens are whitespace-delimited chunks of the raw text (title included);
    sentences are counted over body paragraphs with the rule-based segmenter
    from the features module. Both choices are segmentation conventions, so
    comparisons against published totals carry a small tolerance.
    """
    from .features import segment_sentences

    essays = corpus.essays_in(scope)
    label_counts = {label: 0 for label in LABELS}
    paragraph_count = 0
    sentence_count = 0
    token_count = 0
    for essay in essays:
        token_count += len(essay.raw_text.split())
        paragraph_count += len(essay.paragraphs)
        for index in range(len(essay.paragraphs)):
            sentence_count += len(segment_sentences(essay.paragraph_text(index)))
        for component in essay.components:
            label_counts[component.gold_label] += 1
    return CorpusStats(
        essay_count=len(essays),
        paragraph_count=paragraph_count,
        sentence_count=sentence_count,
        token_count=token_count,
        label_counts=label_counts,
        component_count=sum(label_counts.values()),
    )

