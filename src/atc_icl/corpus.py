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
import hashlib
import io
import os
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
    order used by majority voting (:data:`TIE_BREAK_RANK`) follows train-set
    frequency: Premise > Claim > Major Claim.
    """

    MAJOR_CLAIM = "MajorClaim"
    CLAIM = "Claim"
    PREMISE = "Premise"

    # Members are singletons compared by identity; Enum's own __hash__ is Python code run on every vote.
    __hash__ = object.__hash__

    @property
    def display_name(self) -> str:
        return "Major Claim" if self is Label.MAJOR_CLAIM else self.value


#: The tie-break rank of each label: the higher rank wins a tied majority vote.
TIE_BREAK_RANK = {Label.MAJOR_CLAIM: 0, Label.CLAIM: 1, Label.PREMISE: 2}

#: Canonical report order: Major Claim, Claim, Premise.
LABELS: tuple[Label, ...] = (Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE)


@dataclass(frozen=True, slots=True)
class Span:
    """Half-open character interval ``[start, end)`` into an essay's raw text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


@dataclass(frozen=True, slots=True)
class ArgumentComponent:
    """A labeled argument component, addressed by its span in the raw text."""

    id: str
    span: Span
    text: str
    gold_label: Label
    paragraph_index: int


@dataclass(frozen=True, slots=True)
class Essay:
    """One essay and its argument components.

    Equal essays are equal in every field. An essay hashes by its id and raw
    text, whose hashes Python keeps with the strings, so an essay keys a dict
    without hashing each of its components on every lookup.
    """

    essay_id: str
    title: str
    paragraphs: tuple[Span, ...]
    components: tuple[ArgumentComponent, ...]
    raw_text: str

    def __hash__(self) -> int:
        return hash((self.essay_id, self.raw_text))

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
    """All essays plus the official train/test split, immutable after load.

    ``digest`` is the SHA-256 over the bytes of every essay's .txt and .ann
    file and of the split file, each prefixed by its length.
    """

    essays: tuple[Essay, ...]
    split: Mapping[str, Split]
    digest: str

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


#: The label of each annotation-file token.
_LABEL_OF_TOKEN = {label.value: label for label in Label}


def parse_essay(text_file_contents: str, ann_file_contents: str, essay_id: str) -> Essay:
    """Build an :class:`Essay` from raw .txt and .ann file contents.

    Entity (``T``) lines become argument components, cross-checked against the
    raw text and sorted by span start; all other annotation lines are skipped.
    An empty text or title line raises :class:`EmptyText`, and an entity line
    of the wrong shape, or a component outside every body paragraph,
    :class:`MalformedAnnotation`.
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
        if not raw_line.startswith("T"):
            continue
        line = raw_line.rstrip("\r")
        fields = line.split("\t", 2)
        if len(fields) < 3:
            raise MalformedAnnotation(f"{essay_id}: entity line needs 3 tab-separated fields: {line!r}")
        tid, meta, surface = fields
        meta_parts = meta.split(" ")
        if len(meta_parts) != 3:
            raise MalformedAnnotation(f"{essay_id}: bad entity header {meta!r} in {tid}")
        label_token, start_s, end_s = meta_parts
        label = _LABEL_OF_TOKEN.get(label_token)
        if label is None:
            raise MalformedAnnotation(f"{essay_id}: unknown label {label_token!r} in {tid}")
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
        if tid in seen_ids:
            raise MalformedAnnotation(f"{essay_id}: duplicate annotation id {tid}")
        seen_ids.add(tid)
        # Paragraphs are sorted and disjoint: only the last one starting at or
        # before the component can hold it.
        index = bisect_right(paragraph_starts, start) - 1
        if index < 0 or end > paragraphs[index].end:
            raise MalformedAnnotation(
                f"{essay_id}: component {tid} does not lie within a single body paragraph"
            )
        components.append(ArgumentComponent(tid, Span(start, end), piece, label, index))

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


def _read_utf8(path: Path | str, digest: hashlib._Hash | None = None) -> str:
    """A file's contents decoded as UTF-8, with no newline translation.

    The bytes read, prefixed by their length, are fed into ``digest`` if given.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise AtcError(f"cannot read {path}: {exc}") from None
    if digest is not None:
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return text


def read_split_file(split_file: Path | str, digest: hashlib._Hash | None = None) -> dict[str, Split]:
    """Read the two-column split CSV (``essay_id;SET``), ';' or ',' delimited.

    A row with fewer than two columns, an unknown split value, or an essay id
    listed twice raises :class:`SplitMismatch` naming the file. The file's
    bytes are fed into ``digest`` if given, as :func:`_read_utf8` does.
    """
    content = _read_utf8(Path(split_file), digest)
    first_line = content.splitlines()[0] if content.splitlines() else ""
    delimiter = ";" if first_line.count(";") >= first_line.count(",") else ","
    split: dict[str, Split] = {}
    for row in csv.reader(io.StringIO(content, newline=None), delimiter=delimiter):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise SplitMismatch(f"{split_file}: split row needs two columns: {row!r}")
        essay_id, value = row[0].strip(), row[1].strip()
        if essay_id.lower() == "id":
            continue  # header row
        try:
            label = Split(value.upper())
        except ValueError:
            raise SplitMismatch(f"{split_file}: unknown split value {value!r} for {essay_id!r}") from None
        if essay_id in split:
            first = split[essay_id].value
            raise SplitMismatch(f"{split_file}: essay {essay_id!r} is listed twice, as {first!r} and {value!r}")
        split[essay_id] = label
    return split


def load_corpus(root_dir: Path | str, split_file: Path | str) -> Corpus:
    """Load every .txt/.ann pair under ``root_dir`` and apply the split file.

    A file that cannot be read or is not UTF-8 raises :class:`AtcError`
    naming it. The corpus digest is hashed from the bytes read here, so a
    run can tell whether a resume sees the same corpus.
    """
    root = Path(root_dir)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []  # as Path.glob, a missing or unlistable directory holds no essay
    # An essay id is its files' Path.stem, so a bare ".txt" is its own stem.
    txt_names = {name[:-4] or name: name for name in names if name.endswith(".txt")}
    ann_ids = {name[:-4] or name for name in names if name.endswith(".ann")}
    if not txt_names and not ann_ids:
        raise MissingPair(f"no .txt/.ann essay pairs found under {root}")
    unpaired = sorted(txt_names.keys() ^ ann_ids)
    if unpaired:
        raise MissingPair(f"essays without a .txt/.ann counterpart: {', '.join(unpaired)}")

    prefix = str(root / "_")[:-1]  # what Path puts before a name joined to root: "" for ".", "c/" for "c"
    digest = hashlib.sha256()
    essays = []
    for essay_id, name in txt_names.items():  # in file name order
        text = _read_utf8(prefix + name, digest)
        ann = _read_utf8(prefix + essay_id + ".ann", digest)
        essays.append(parse_essay(text, ann, essay_id))
    essays.sort(key=lambda e: e.essay_id)

    split = read_split_file(split_file, digest)
    disk_ids = {e.essay_id for e in essays}
    missing_on_disk = sorted(set(split) - disk_ids)
    missing_in_split = sorted(disk_ids - set(split))
    if missing_on_disk or missing_in_split:
        raise SplitMismatch(
            f"split file and corpus directory disagree "
            f"(in split only: {missing_on_disk}; on disk only: {missing_in_split})"
        )
    return Corpus(essays=tuple(essays), split=split, digest=digest.hexdigest())


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

