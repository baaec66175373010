"""Persuasive-essay corpus model: brat standoff parsing, splits, statistics.

An essay on disk is a pair ``essayNNN.txt`` / ``essayNNN.ann``, both UTF-8.
The text file holds a non-blank title on line one, a blank separator line,
and one body paragraph per subsequent non-blank line. The annotation file is
brat standoff: entity lines ``T<id><TAB><Type> <start> <end><TAB><surface>``
address character offsets into the raw text file contents. Relation (``R``)
and attribute (``A``) lines are tolerated and ignored; only argument
components are modeled here, and each must lie within one body paragraph.

Offsets are taken literally, so callers must hand over file contents without
newline translation (read bytes, decode UTF-8). A CRLF line ending's ``\r``
belongs to no paragraph span.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import AtcError


class MalformedAnnotation(AtcError):
    """An entity line in a .ann file violates the expected shape."""


class EmptyText(AtcError):
    """The essay text file, or its title line, is empty or whitespace-only."""


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


@dataclass(frozen=True)
class ArgumentComponent:
    """A labeled argument component, addressed by its span in the raw text."""

    id: str
    span: Span
    text: str
    gold_label: Label
    paragraph_index: int


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


@dataclass(frozen=True)
class Corpus:
    """All essays plus the official train/test split, immutable after load."""

    essays: tuple[Essay, ...]
    split: Mapping[str, Split]

    def essays_in(self, split: Split | None) -> list[Essay]:
        """The essays of ``split``; every essay when it is None."""
        if split is None:
            return list(self.essays)
        return [e for e in self.essays if self.split[e.essay_id] is split]

    def train_essays(self) -> list[Essay]:
        return self.essays_in(Split.TRAIN)

    def test_essays(self) -> list[Essay]:
        return self.essays_in(Split.TEST)

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
    raw text and sorted by span start; all other annotation lines are skipped.
    An empty text or title line raises :class:`EmptyText`, and a component
    outside every body paragraph :class:`MalformedAnnotation`.
    """
    text = text_file_contents
    if not text.strip():
        raise EmptyText(f"{essay_id}: empty essay text")

    title_line, *body_lines = text.split("\n")
    title = title_line.rstrip("\r")
    if not title.strip():
        raise EmptyText(f"{essay_id}: empty title line")
    paragraphs = []
    start = len(title_line) + 1
    for line in body_lines:
        body = line[:-1] if line.endswith("\r") else line
        if body.strip():
            paragraphs.append(Span(start, start + len(body)))
        start += len(line) + 1
    paragraph_starts = [p.start for p in paragraphs]

    components = []
    seen_ids = set()
    for raw_line in ann_file_contents.split("\n"):
        line = raw_line.rstrip("\r")
        if not line.startswith("T"):
            continue
        tid, span, label = _parse_entity_line(line, text, essay_id)
        if tid in seen_ids:
            raise MalformedAnnotation(f"{essay_id}: duplicate annotation id {tid}")
        seen_ids.add(tid)
        # Paragraphs are sorted and disjoint: only the last one starting at or
        # before the component can hold it.
        index = bisect_right(paragraph_starts, span.start) - 1
        if index < 0 or span.end > paragraphs[index].end:
            raise MalformedAnnotation(
                f"{essay_id}: component {tid} does not lie within a single body paragraph"
            )
        components.append(ArgumentComponent(id=tid, span=span, text=span.slice(text), gold_label=label,
                                            paragraph_index=index))

    components.sort(key=lambda c: c.span.start)
    for before, after in zip(components, components[1:]):
        if after.span.start < before.span.end:
            raise MalformedAnnotation(f"{essay_id}: overlapping component spans at {after.id}")

    return Essay(
        essay_id=essay_id,
        title=title,
        paragraphs=tuple(paragraphs),
        components=tuple(components),
        raw_text=text,
    )


def _read_utf8(path: Path) -> str:
    """A file's contents decoded as UTF-8, with no newline translation."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise AtcError(f"cannot read {path}: {exc}") from None


def read_split_file(split_file: Path | str) -> dict[str, Split]:
    """Read the two-column split CSV (``essay_id;SET``), ';' or ',' delimited."""
    content = _read_utf8(Path(split_file))
    first_line = content.splitlines()[0] if content.splitlines() else ""
    delimiter = ";" if first_line.count(";") >= first_line.count(",") else ","
    split: dict[str, Split] = {}
    for row in csv.reader(io.StringIO(content, newline=None), delimiter=delimiter):
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
    """Load every .txt/.ann pair under ``root_dir`` and apply the split file.

    A file that cannot be read or is not UTF-8 raises :class:`AtcError`
    naming it.
    """
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
        text = _read_utf8(txt_path)
        ann = _read_utf8(root / (txt_path.stem + ".ann"))
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


def compute_stats(corpus: Corpus, split: Split | None = None) -> CorpusStats:
    """Corpus statistics over the essays of ``split``, or every essay when it is None.

    Tokens are whitespace-delimited chunks of the raw text (title included);
    sentences are counted over body paragraphs with the rule-based segmenter
    from the features module. Both choices are segmentation conventions, so
    comparisons against published totals carry a small tolerance.
    """
    from .features import segment_sentences

    essays = corpus.essays_in(split)
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

