"""Shared fixtures: handcrafted essays with frozen offsets, synthetic corpora."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import pytest

from atc_icl.corpus import Corpus, Essay, Label, load_corpus, parse_essay
from atc_icl.gateway import BackendTag, ChatResponse, EmbeddingVector, Usage, embedding_digest
from atc_icl.synth import PE_SHAPE, SPLIT_FILE_NAME, generate_corpus, small_shape

# Handcrafted essay with offsets computed independently of the parser
# (frozen from str.index over the literal text).
PARK_TEXT = (
    "Keeping city parks open at night\n"
    "\n"
    "Many residents enjoy parks. City parks should stay open at night.\n"
    "Night closures reduce access for shift workers. Parks calm busy minds, "
    "and they cost little to keep open.\n"
    "In short, open parks help everyone. Open parks are a small investment, "
    "e.g. modest lighting costs.\n"
)
PARK_ANN = (
    "T1\tMajorClaim 62 98\tCity parks should stay open at night\n"
    "T2\tClaim 100 146\tNight closures reduce access for shift workers\n"
    "T3\tPremise 175 204\tthey cost little to keep open\n"
    "T4\tClaim 216 240\topen parks help everyone\n"
    "R1\tsupports Arg1:T3 Arg2:T2\n"
    "A1\tStance T1 For\n"
)


def build_essay_files(title: str, paragraphs: list[list[tuple[str, Label | None]]]) -> tuple[str, str]:
    """Assemble (.txt, .ann) contents from labeled text segments.

    Each paragraph is a list of (text, label) segments concatenated verbatim;
    a non-None label marks the segment as an argument component. Offsets are
    computed here, independently of the parser under test.
    """
    raw = title + "\n\n"
    entities = []
    for paragraph in paragraphs:
        for segment, label in paragraph:
            if label is not None:
                entities.append((label, len(raw), len(raw) + len(segment), segment))
            raw += segment
        raw += "\n"
    ann_lines = [
        f"T{i}\t{label.value} {start} {end}\t{segment}"
        for i, (label, start, end, segment) in enumerate(entities, start=1)
    ]
    return raw, "\n".join(ann_lines) + ("\n" if ann_lines else "")


def build_essay(essay_id: str, title: str, paragraphs: list[list[tuple[str, Label | None]]]) -> Essay:
    text, ann = build_essay_files(title, paragraphs)
    return parse_essay(text, ann, essay_id)


def simple_essay(essay_id: str, title: str, labels: list[Label]) -> Essay:
    """One-paragraph-per-component essay for selection/prompting tests."""
    paragraphs = [
        [("Opening line about the topic. ", None), (f"statement number {i} holds", label), (".", None)]
        for i, label in enumerate(labels, start=1)
    ]
    return build_essay(essay_id, title, paragraphs)


def user_texts(prompt) -> tuple[str, ...]:
    """The user text of each of ``prompt``'s calls: its context followed by one instruction."""
    return tuple(prompt.context + instruction for instruction in prompt.instructions)


class MappingEmbeddingBackend:
    """Mock embeddings from an explicit text-to-vector mapping."""

    def __init__(self, mapping: dict[str, Sequence[float]], model_name: str = "mock-embed") -> None:
        self.mapping = mapping
        self.model_name = model_name
        self.calls = 0

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        self.calls += 1
        if text not in self.mapping:
            raise RuntimeError(f"mock embedding backend has no vector for {text!r}")
        vector = EmbeddingVector(
            values=tuple(float(x) for x in self.mapping[text]),
            source_text_digest=embedding_digest(self.model_name, text),
        )
        return vector, BackendTag.MOCK


class ScriptedChatBackend:
    """Mock chat answers taken in order from a fixed list."""

    def __init__(self, script: Sequence[str]) -> None:
        self.script = list(script)
        self.calls = 0

    def complete(self, request) -> ChatResponse:
        self.calls += 1
        if not self.script:
            raise RuntimeError("scripted chat backend has no response left")
        return ChatResponse(text=self.script.pop(0), usage=Usage(), backend_tag=BackendTag.MOCK)


@pytest.fixture()
def park_essay() -> Essay:
    return parse_essay(PARK_TEXT, PARK_ANN, "essay001")


def write_corpus_dir(root: Path, essays: dict[str, tuple[str, str]], split: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for essay_id, (text, ann) in essays.items():
        (root / f"{essay_id}.txt").write_text(text, encoding="utf-8")
        (root / f"{essay_id}.ann").write_text(ann, encoding="utf-8")
    lines = ['"ID";"SET"'] + [f'"{eid}";"{tag}"' for eid, tag in split.items()]
    (root / SPLIT_FILE_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory) -> Path:
    """Full-size synthetic corpus matching the published dataset shape."""
    out = tmp_path_factory.mktemp("synth-full")
    generate_corpus(out, PE_SHAPE, seed=20240817)
    return out


@pytest.fixture(scope="session")
def synth_corpus(synth_dir: Path) -> Corpus:
    return load_corpus(synth_dir, synth_dir / SPLIT_FILE_NAME)


@pytest.fixture(scope="session")
def small_dir(tmp_path_factory) -> Path:
    """Twelve-essay synthetic corpus (8 train / 4 test) for quick CLI runs."""
    out = tmp_path_factory.mktemp("synth-small")
    generate_corpus(out, small_shape(12, 8), seed=7)
    return out


@pytest.fixture(scope="session")
def small_corpus(small_dir: Path) -> Corpus:
    return load_corpus(small_dir, small_dir / SPLIT_FILE_NAME)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"[acceptance] {name}: {status}", flush=True)
