"""The package's value and state types: constructors, equality, hashing, and refused assignment."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import pytest

from atc_icl.config import BackendConfig, RunConfig
from atc_icl.corpus import ArgumentComponent, Corpus, CorpusStats, Essay, Label, Span, Split
from atc_icl.ensemble import IclConfig, PredictionRecord, PromptCache
from atc_icl.errors import ConfigError
from atc_icl.features import StructuralFeatures
from atc_icl.gateway import (BackendTag, ChatRequest, ChatResponse, EmbeddingVector, Gateway, HashEmbeddingBackend,
                             MockChatBackend, RetryPolicy, Usage)
from atc_icl.metrics import ClassMetrics, EvaluationReport
from atc_icl.prompting import Prompt, PromptConfig, PromptMode
from atc_icl.selection import SelectionOutcome, SelectionStrategy


def no_sleep(seconds: float) -> None:
    pass


SPAN = Span(0, 4)
COMPONENT = ArgumentComponent("T1", SPAN, "Cars", Label.CLAIM, 0)
ESSAY = Essay("essay001", "Title", (SPAN,), (COMPONENT,), "Cars\n")
ICL = IclConfig(SelectionStrategy.KNN_LEN, 3, 3, PromptConfig(), 17)
OUTCOME = SelectionOutcome(("essay002", "essay003"), ("essay003",), 1, 2)
METRICS = ClassMetrics(1.0, 0.5, 2 / 3, 4)
CHAT, EMBEDDER = MockChatBackend(responder=lambda request: "1. Claim"), HashEmbeddingBackend(dim=4)

# (type, its fields in declaration order, whether its instances hash, whether it refuses assignment). Each
# type is built twice from these fields, positionally and by keyword; the fields a case leaves out at
# the end take their defaults.
CASES = [
    (BackendConfig, dict(chat="replay", mock_mode="constant", cache_upstream="mock", embedding="cache",
                         embedding_upstream="hash", embedding_model="m", embedding_dim=4, store_dir=Path("s")),
     True, True),
    (RunConfig, dict(corpus_dir=Path("c"), split_file=Path("c/split.csv"), out_dir=Path("out"), icl=ICL), True, True),
    (Span, dict(start=2, end=9), True, True),
    (ArgumentComponent, dict(id="T1", span=SPAN, text="Cars", gold_label=Label.CLAIM, paragraph_index=0), True, True),
    (Essay, dict(essay_id="essay001", title="Title", paragraphs=(SPAN,), components=(COMPONENT,),
                 raw_text="Cars\n"), True, True),
    (Corpus, dict(essays=(ESSAY,), split={"essay001": Split.TRAIN}, digest="d"), False, True),
    (CorpusStats, dict(essay_count=1, paragraph_count=1, sentence_count=1, token_count=2,
                       label_counts={Label.CLAIM: 1}, component_count=1), False, True),
    (IclConfig, dict(strategy=SelectionStrategy.KRN, k=5, n_rounds=1, prompt=PromptConfig(), run_seed=3,
                     model_name="gpt-3.5-turbo", temperature=0.5), True, True),
    (PredictionRecord, dict(essay_id="essay001", rounds=((Label.CLAIM,),), final=(Label.CLAIM,),
                            vote_counts=({"Claim": 1},), selections=(OUTCOME,)), False, True),
    (PromptCache, dict(bodies={ESSAY: "body"}), False, False),
    (StructuralFeatures, dict(is_first_in_paragraph=True, is_last_in_paragraph=False, in_introduction=True,
                              in_conclusion=False, paragraph_number=1), True, True),
    (Usage, dict(prompt_tokens=3, completion_tokens=1), True, True),
    (ChatRequest, dict(system_text="sys", user_text="classify this", model_name="gpt-4", temperature=0.7,
                       max_output_tokens=16), True, True),
    (ChatResponse, dict(text="1. Claim", usage=Usage(3, 1), backend_tag=BackendTag.LIVE), True, True),
    (EmbeddingVector, dict(values=(3.0, 4.0), source_text_digest="d"), True, True),
    (RetryPolicy, dict(attempts=2, base_delay=0.5, sleep=no_sleep), False, False),
    (Gateway, dict(chat_backend=CHAT, embedding_backend=EMBEDDER, retry=RetryPolicy(sleep=no_sleep),
                   counts=Counter({("chat", BackendTag.MOCK): 1})), False, False),
    (ClassMetrics, dict(precision=1.0, recall=0.5, f1=2 / 3, support=4), True, True),
    (EvaluationReport, dict(per_label={Label.CLAIM: METRICS}, macro_f1=0.2, components=4, run_label="row"),
     False, True),
    (PromptConfig, dict(include_info=True, include_essay=False, include_fts=True, mode=PromptMode.ONE_BY_ONE),
     True, True),
    (Prompt, dict(system_text="sys", pieces=("context",), instructions=("classify",), answer_lines=1,
                  reminder="\n\nReminder"), True, True),
    (SelectionOutcome, dict(neighbor_ids=("essay002",), chosen_ids=("essay002",), rank_seed=1, pick_seed=2),
     True, True),
]


@pytest.mark.parametrize("cls, fields, hashable, frozen", CASES, ids=[case[0].__name__ for case in CASES])
def test_equal_fields_make_equal_values(cls, fields, hashable, frozen):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword and not positional != keyword
    assert all(getattr(keyword, name) == value for name, value in fields.items())
    if hashable:
        assert hash(positional) == hash(keyword)
    else:
        with pytest.raises(TypeError):
            hash(positional)
    name, value = next(iter(fields.items()))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(keyword, name, value)
        assert getattr(keyword, name) == value
    else:  # a type that holds state lets it change
        setattr(keyword, name, value)


def test_an_embeddings_norm_is_computed_once(monkeypatch):
    vector = EmbeddingVector((3.0, 4.0), "d")
    sums, real_fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: sums.append(1) or real_fsum(values))
    assert vector.norm == vector.norm == 5.0
    assert sums == [1]
    assert vector == EmbeddingVector((3.0, 4.0), "d")


def test_a_replaced_field_is_checked_as_the_constructor_checks_it():
    assert ICL._replace(run_seed=5) == IclConfig(SelectionStrategy.KNN_LEN, 3, 3, PromptConfig(), 5)
    with pytest.raises(ValueError, match=r"^invalid span \[2, 2\)$"):
        Span(2, 9)._replace(end=2)
    with pytest.raises(ConfigError, match="^k must be non-negative$"):
        ICL._replace(k=-1)
    with pytest.raises(ConfigError, match="^cache/replay backends need backend.store_dir$"):
        BackendConfig()._replace(chat="replay")
