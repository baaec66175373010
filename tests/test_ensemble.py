"""Majority voting, per-round seeding, and the ensembling loop: asking, retrying, voting."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from atc_icl import ensemble, prompting
from atc_icl.corpus import LABELS, TIE_BREAK_RANK, Label
from atc_icl.ensemble import (
    EmptyVotes,
    IclConfig,
    PredictionRecord,
    PromptCache,
    RoundFailed,
    derive_round_seed,
    majority_vote,
    run_ensemble,
)
from atc_icl.errors import ConfigError
from atc_icl import gateway as gateway_module
from atc_icl.gateway import Gateway, HashEmbeddingBackend, MockChatBackend, chat_request_digest
from atc_icl.prompting import (FORMAT_REMINDER, ONE_BY_ONE_REMINDER, PromptConfig, PromptMode, UnknownLabel,
                               build_prompt, parse_response, render_info, render_labels)
from atc_icl.selection import SelectionOutcome, SelectionStrategy, rank_neighbors, subsample
from conftest import ScriptedChatBackend, build_essay, simple_essay, user_texts


def brute_force_vote(votes):
    """Independent tally oracle: count each label with a plain loop, then
    apply the documented tie-break order Premise > Claim > Major Claim."""
    best_label = None
    best_key = None
    for label in (Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE):
        count = 0
        for vote in votes:
            if vote is label:
                count += 1
        key = (count, TIE_BREAK_RANK[label])
        if best_key is None or key > best_key:
            best_key = key
            best_label = label
    return best_label


def test_majority_vote_examples():
    assert majority_vote([Label.PREMISE, Label.PREMISE, Label.CLAIM]) is Label.PREMISE
    assert majority_vote([Label.CLAIM, Label.CLAIM, Label.CLAIM]) is Label.CLAIM
    # 2-2-1 tie between Major Claim and Claim resolves to Claim (higher frequency rank).
    assert (
        majority_vote([Label.MAJOR_CLAIM, Label.MAJOR_CLAIM, Label.CLAIM, Label.CLAIM, Label.PREMISE])
        is Label.CLAIM
    )


def test_majority_vote_empty():
    with pytest.raises(EmptyVotes):
        majority_vote([])


def test_majority_vote_exhaustive_oracle_up_to_five():
    cases = 0
    for length in range(1, 6):
        for votes in itertools.product(LABELS, repeat=length):
            assert majority_vote(list(votes)) is brute_force_vote(votes), votes
            cases += 1
    assert cases == 3 + 9 + 27 + 81 + 243  # 363


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=9), st.randoms())
def test_majority_vote_permutation_invariant(votes, rng):
    shuffled = list(votes)
    rng.shuffle(shuffled)
    assert majority_vote(votes) is majority_vote(shuffled)


@given(st.sampled_from(LABELS), st.lists(st.sampled_from(LABELS), max_size=4))
def test_majority_vote_strict_majority_dominates(winner, others):
    votes = [winner] * (len(others) + 1) + others
    assert majority_vote(votes) is winner


def prompt_config(mode=PromptMode.ALL_AT_ONCE):
    return PromptConfig(mode=mode)


def test_icl_config_validation():
    with pytest.raises(ConfigError):
        IclConfig(SelectionStrategy.KRN, k=-1, n_rounds=3, prompt=prompt_config(), run_seed=0)
    with pytest.raises(ConfigError):
        IclConfig(SelectionStrategy.KRN, k=3, n_rounds=0, prompt=prompt_config(), run_seed=0)
    with pytest.raises(ConfigError):
        IclConfig(SelectionStrategy.KRN, k=0, n_rounds=1, prompt=prompt_config(), run_seed=0)
    with pytest.raises(ConfigError):
        IclConfig(
            SelectionStrategy.KRN, k=0, n_rounds=3,
            prompt=prompt_config(PromptMode.ONE_BY_ONE), run_seed=0,
        )
    config = IclConfig(SelectionStrategy.KRN, k=5, n_rounds=5, prompt=prompt_config(), run_seed=0)
    assert config.is_standard_grid()
    assert not IclConfig(
        SelectionStrategy.KRN, k=2, n_rounds=5, prompt=prompt_config(), run_seed=0
    ).is_standard_grid()


def test_derive_round_seed_is_stable_and_distinct():
    a = derive_round_seed(7, "essay001", 1, "rank")
    assert a == derive_round_seed(7, "essay001", 1, "rank")
    others = {
        derive_round_seed(7, "essay001", 1, "pick"),
        derive_round_seed(7, "essay001", 2, "rank"),
        derive_round_seed(7, "essay002", 1, "rank"),
        derive_round_seed(8, "essay001", 1, "rank"),
    }
    assert a not in others
    assert len(others) == 4


def make_pool(size=8):
    labels_cycle = [Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE, Label.PREMISE]
    return [
        simple_essay(f"pool{i:02d}", f"Pool topic {i}", labels_cycle[: (i % 3) + 2])
        for i in range(size)
    ]


PROPERTY_POOL = make_pool()


def gold_of(essay):
    return [c.gold_label for c in essay.components]


def echo_gateway(query):
    return Gateway(
        chat_backend=MockChatBackend(responder=lambda request: render_labels(gold_of(query)))
    )


def test_run_ensemble_single_round_identity():
    query = simple_essay("q", "Query topic", [Label.MAJOR_CLAIM, Label.PREMISE])
    config = IclConfig(SelectionStrategy.KNN_LEN, k=2, n_rounds=1, prompt=prompt_config(), run_seed=1)
    record = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert record.final == record.rounds[0]
    assert record.essay_id == "q"


def test_run_ensemble_gold_echo_all_rounds():
    query = simple_essay("q", "Query topic", [Label.CLAIM, Label.PREMISE, Label.PREMISE])
    config = IclConfig(SelectionStrategy.KRN, k=3, n_rounds=5, prompt=prompt_config(), run_seed=3)
    record = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert list(record.final) == gold_of(query)
    assert len(record.rounds) == 5
    assert all(len(round_) == query.m for round_ in record.rounds)
    assert len(record.selections) == 5
    assert all(len(s.chosen_ids) == 3 for s in record.selections)


def test_run_ensemble_rounds_vary_demonstrations():
    query = simple_essay("q", "Query topic", [Label.CLAIM])
    config = IclConfig(SelectionStrategy.KRN, k=3, n_rounds=5, prompt=prompt_config(), run_seed=11)
    record = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert len({s.chosen_ids for s in record.selections}) > 1


def test_run_ensemble_scripted_disagreement_matches_tally_oracle():
    query = simple_essay("q", "Query topic", [Label.CLAIM, Label.PREMISE])
    per_round = [
        [Label.CLAIM, Label.PREMISE],
        [Label.MAJOR_CLAIM, Label.PREMISE],
        [Label.CLAIM, Label.CLAIM],
        [Label.MAJOR_CLAIM, Label.PREMISE],
        [Label.CLAIM, Label.PREMISE],
    ]
    script = [render_labels(labels) for labels in per_round]
    gateway = Gateway(chat_backend=ScriptedChatBackend(script))
    config = IclConfig(SelectionStrategy.KNN_LEN, k=2, n_rounds=5, prompt=prompt_config(), run_seed=5)
    record = run_ensemble(query, make_pool(), config, gateway)
    # 3-vs-2 on component 1 (Claim), 4-vs-1 on component 2 (Premise).
    assert record.final == (Label.CLAIM, Label.PREMISE)
    for j in range(query.m):
        assert record.final[j] is brute_force_vote([labels[j] for labels in per_round])
    assert record.vote_counts[0] == {"Claim": 3, "MajorClaim": 2}


def old_vote_rule(votes):
    """``final`` and ``vote_counts`` of one component as the vote first computed them: ``max``
    over all three labels by (count, tie-break rank), and the counts in label-value order."""
    rank = {Label.MAJOR_CLAIM: 0, Label.CLAIM: 1, Label.PREMISE: 2}
    final = max(LABELS, key=lambda label: (votes.count(label), rank[label]))
    ordered = sorted(LABELS, key=lambda label: label.value)
    return final, [(label.value, votes.count(label)) for label in ordered if label in votes]


@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.sampled_from(LABELS), min_size=m, max_size=m), min_size=1, max_size=5)))
def test_run_ensemble_final_and_vote_counts_follow_the_old_rule(per_round):
    m = len(per_round[0])
    query = simple_essay("q", "Query topic", [Label.PREMISE] * m)
    gateway = Gateway(chat_backend=ScriptedChatBackend([render_labels(labels) for labels in per_round]))
    config = IclConfig(SelectionStrategy.KNN_LEN, k=2, n_rounds=len(per_round), prompt=prompt_config(), run_seed=5)
    record = run_ensemble(query, PROPERTY_POOL, config, gateway)
    for j in range(m):
        votes = [labels[j] for labels in per_round]
        final, counts = old_vote_rule(votes)
        assert record.final[j] is final is majority_vote(votes)
        assert list(record.vote_counts[j].items()) == counts


def test_run_ensemble_round_failure_aborts_essay():
    query = simple_essay("q", "Query topic", [Label.CLAIM])
    # The first answer has a line too many, the two retries an unknown class.
    answers = iter(["1. Claim\n2. Claim", "banana", "banana"])
    gateway = Gateway(chat_backend=MockChatBackend(responder=lambda request: next(answers)))
    config = IclConfig(SelectionStrategy.KNN_LEN, k=2, n_rounds=3, prompt=prompt_config(), run_seed=5)
    with pytest.raises(RoundFailed) as failed:
        run_ensemble(query, make_pool(), config, gateway)
    assert str(failed.value) == (
        "q: round 1 failed: no parseable answer after 3 attempts,"
        " the last: no recognizable class in line 'banana'"
    )
    assert gateway.calls("chat") == 3



def ask_round(query, config, gateway, k=2, info=None, **settings):
    """Run ``query`` through one round over ``make_pool()`` (no pool for k = 0).

    Returns the record and the round's prompt, rebuilt from the round's chosen
    demonstrations, so a test can compare what was sent with what
    ``build_prompt`` renders.
    """
    icl = IclConfig(SelectionStrategy.KRN, k=k, n_rounds=1, prompt=config, run_seed=0, **settings)
    pool = make_pool() if k else []
    record = run_ensemble(query, pool, icl, gateway, info=info)
    by_id = {e.essay_id: e for e in pool}
    (prompt,) = build_prompt(query, [[by_id[i] for i in record.selections[0].chosen_ids]], config, info)
    return record, prompt


def component_of(request):
    return int(re.search(r"component (\d+) of", request.user_text).group(1))


def test_run_ensemble_asks_a_parseable_round_once(park_essay):
    gateway = Gateway(chat_backend=ScriptedChatBackend([render_labels(gold_of(park_essay))]))
    record, _ = ask_round(park_essay, prompt_config(), gateway)
    assert list(record.rounds[0]) == gold_of(park_essay)
    assert len(record.responses[0]) == 1


def test_run_ensemble_retries_then_succeeds(park_essay):
    gold = render_labels(gold_of(park_essay))
    gateway = Gateway(chat_backend=ScriptedChatBackend(["not a label list", gold]))
    record, _ = ask_round(park_essay, prompt_config(), gateway)
    assert list(record.rounds[0]) == gold_of(park_essay)
    assert record.responses[0] == ("not a label list", gold)


def test_run_ensemble_retry_appends_reminder(park_essay):
    seen = []

    def responder(request):
        seen.append(request.user_text)
        return "garbage" if len(seen) == 1 else render_labels(gold_of(park_essay))

    ask_round(park_essay, prompt_config(), Gateway(chat_backend=MockChatBackend(responder=responder)))
    assert "Reminder:" not in seen[0]
    assert "Reminder:" in seen[1]


def test_all_at_once_retry_text_is_unchanged(park_essay):
    seen = []

    def responder(request):
        seen.append(request.user_text)
        return "garbage" if len(seen) == 1 else render_labels(gold_of(park_essay))

    _, prompt = ask_round(park_essay, prompt_config(), Gateway(chat_backend=MockChatBackend(responder=responder)))
    (base,) = user_texts(prompt)
    assert seen == [base, base + "\n\nReminder: respond with exactly 4 lines, one per component, in the format "
                    "'<index>. <label>', where <label> is 'Major Claim', 'Claim', or 'Premise'. "
                    "Output nothing else."]


def test_one_by_one_retry_asks_for_the_label_alone(park_essay):
    gold = gold_of(park_essay)
    seen = []

    def responder(request):
        seen.append(request.user_text)
        return "garbage" if len(seen) == 1 else gold[component_of(request) - 1].display_name

    config = prompt_config(PromptMode.ONE_BY_ONE)
    record, prompt = ask_round(park_essay, config, Gateway(chat_backend=MockChatBackend(responder=responder)), k=0)
    assert list(record.rounds[0]) == gold
    assert len(record.responses[0]) == park_essay.m + 1
    first = user_texts(prompt)[0]
    assert seen[:2] == [first, first + "\n\n" + ONE_BY_ONE_REMINDER]
    assert ONE_BY_ONE_REMINDER.startswith(FORMAT_REMINDER.split("{")[0])
    assert "lines" not in ONE_BY_ONE_REMINDER and "<index>" not in ONE_BY_ONE_REMINDER


def test_run_ensemble_round_fails_after_the_retry_budget(park_essay):
    gateway = Gateway(chat_backend=MockChatBackend(responder=lambda request: "always garbage"))
    with pytest.raises(RoundFailed) as failed:
        ask_round(park_essay, prompt_config(), gateway)
    assert gateway.calls("chat") == 3  # initial attempt plus two retries
    assert isinstance(failed.value.__cause__, UnknownLabel)
    assert str(failed.value).endswith(f"the last: {failed.value.__cause__}")


def test_run_ensemble_one_by_one_asks_once_per_component(park_essay):
    gold = gold_of(park_essay)
    gateway = Gateway(chat_backend=MockChatBackend(
        responder=lambda request: gold[component_of(request) - 1].display_name))
    record, _ = ask_round(park_essay, prompt_config(PromptMode.ONE_BY_ONE), gateway)
    assert list(record.rounds[0]) == gold
    assert gateway.calls("chat") == park_essay.m
    assert len(record.responses[0]) == park_essay.m


def test_every_request_of_a_one_by_one_round_is_extended_from_the_rounds_context(park_essay):
    gold = gold_of(park_essay)
    seen = []

    def responder(request):
        seen.append(request)
        return "garbage" if len(seen) == 2 else gold[component_of(request) - 1].display_name

    config = PromptConfig(include_info=True, include_fts=True, mode=PromptMode.ONE_BY_ONE)
    info = render_info({Label.MAJOR_CLAIM: 598, Label.CLAIM: 1202, Label.PREMISE: 3023})
    gateway = Gateway(chat_backend=MockChatBackend(responder=responder))
    record, prompt = ask_round(park_essay, config, gateway, info=info, model_name="gpt-3.5-turbo", temperature=0.5)
    assert list(record.rounds[0]) == gold
    assert len(seen) == park_essay.m + 1
    sent = list(user_texts(prompt))
    sent.insert(2, sent[1] + "\n\n" + ONE_BY_ONE_REMINDER)  # the retry of the second call
    assert [request.user_text for request in seen] == sent
    # Each request's record chunks are the round context's own, then its instruction's escape.
    context = seen[0]._record_start[:-1]
    for request in seen:
        assert len(request._record_start) == len(context) + 1
        assert all(mine is shared for mine, shared in zip(request._record_start, context))
    assert b"".join(context) == b"".join(dataclasses.replace(seen[0], user_text="".join(prompt.pieces))._key()[1])
    assert {(request.model_name, request.temperature) for request in seen} == {("gpt-3.5-turbo", 0.5)}
    for request in seen:
        plain = dataclasses.replace(request)
        assert plain._state is None
        assert chat_request_digest(request) == chat_request_digest(plain)

def test_run_ensemble_reproducible_given_config():
    query = simple_essay("q", "Query topic", [Label.CLAIM, Label.CLAIM])
    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=3, prompt=prompt_config(), run_seed=21)
    first = run_ensemble(query, make_pool(), config, echo_gateway(query))
    second = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_run_ensemble_k_zero_skips_selection():
    query = simple_essay("q", "Query topic", [Label.CLAIM, Label.PREMISE])
    gold = gold_of(query)

    def responder(request):
        import re

        j = int(re.search(r"component (\d+) of", request.user_text).group(1))
        return gold[j - 1].display_name

    gateway = Gateway(chat_backend=MockChatBackend(responder=responder))
    config = IclConfig(
        SelectionStrategy.KRN, k=0, n_rounds=1,
        prompt=prompt_config(PromptMode.ONE_BY_ONE), run_seed=0,
    )
    record = run_ensemble(query, [], config, gateway)
    assert list(record.final) == gold
    assert record.selections == (SelectionOutcome((), (), 0, 0),)


def test_run_ensemble_builds_the_prompts_and_features_once_per_essay(monkeypatch):
    query = simple_essay("q", "Query topic", [Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE])
    gold = gold_of(query)
    calls = {"build_prompt": 0, "extract_structural": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Counted in both modules, so the count holds whichever one calls it.
    for module in (ensemble, prompting):
        monkeypatch.setattr(module, "build_prompt", counted("build_prompt", prompting.build_prompt), raising=False)
    monkeypatch.setattr(prompting, "extract_structural", counted("extract_structural", prompting.extract_structural))

    def responder(request):
        j = int(re.search(r"component (\d+) of", request.user_text).group(1))
        return gold[j - 1].display_name

    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=3, run_seed=8,
                       prompt=PromptConfig(include_fts=True, mode=PromptMode.ONE_BY_ONE))
    record = run_ensemble(query, make_pool(), config, Gateway(chat_backend=MockChatBackend(responder=responder)))
    assert list(record.final) == gold
    assert len({s.chosen_ids for s in record.selections}) > 1
    assert calls == {"build_prompt": 1, "extract_structural": query.m}


def test_prediction_record_dict_round_trip():
    query = simple_essay("q", "Query topic", [Label.CLAIM])
    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=3, prompt=prompt_config(), run_seed=13)
    record = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert PredictionRecord.from_dict(record.to_dict()) == record


def prompt_hash_answer(query, user_text):
    """An answer that depends on the whole prompt, so other demonstrations give other votes."""
    h = hashlib.sha256(user_text.encode("utf-8")).digest()
    return render_labels([LABELS[h[j] % 3] for j in range(query.m)])


def prompt_hash_gateway(query):
    return Gateway(chat_backend=MockChatBackend(responder=lambda request: prompt_hash_answer(query, request.user_text)),
                   embedding_backend=HashEmbeddingBackend(dim=8))


@pytest.mark.parametrize("strategy", list(SelectionStrategy))
def test_run_ensemble_matches_independent_rounds(strategy):
    query = simple_essay("q", "Query topic", [Label.CLAIM, Label.PREMISE, Label.PREMISE])
    pool = make_pool()
    config = IclConfig(strategy, k=3, n_rounds=5, prompt=prompt_config(), run_seed=29)
    record = run_ensemble(query, pool, config, prompt_hash_gateway(query))

    # Oracle: every round ranks and subsamples from scratch with its own seeds.
    gateway = prompt_hash_gateway(query)
    pool_by_id = {e.essay_id: e for e in pool}
    selections, rounds, responses = [], [], []
    for round_index in range(1, 6):
        rank_seed = derive_round_seed(29, "q", round_index, "rank")
        pick_seed = derive_round_seed(29, "q", round_index, "pick")
        neighbors = rank_neighbors(query, pool, strategy, 6, rank_seed, gateway)
        outcome = SelectionOutcome(tuple(neighbors), tuple(subsample(neighbors, pick_seed)),
                                   rank_seed, pick_seed)
        (prompt,) = build_prompt(query, [[pool_by_id[i] for i in outcome.chosen_ids]], config.prompt)
        (instruction,) = prompt.instructions
        raw = prompt_hash_answer(query, "".join(prompt.pieces) + instruction)
        selections.append(outcome)
        rounds.append(tuple(parse_response(raw, query.m)))
        responses.append((raw,))
    per_component = list(zip(*rounds))
    expected = PredictionRecord(
        essay_id="q",
        rounds=tuple(rounds),
        final=tuple(brute_force_vote(votes) for votes in per_component),
        vote_counts=tuple({label.value: votes.count(label) for label in set(votes)}
                          for votes in per_component),
        selections=tuple(selections),
        responses=tuple(responses),
    )
    assert record == expected
    assert record.to_dict() == expected.to_dict()
    assert len({s.chosen_ids for s in record.selections}) > 1


def test_run_ensemble_embeds_each_title_once_per_essay():
    pool = make_pool()
    config = IclConfig(SelectionStrategy.KNN_TITLE, k=3, n_rounds=5, prompt=prompt_config(), run_seed=2)
    queries = [simple_essay(f"q{i}", f"Query topic {i}", [Label.CLAIM]) for i in range(3)]
    gateway = Gateway(chat_backend=MockChatBackend(responder=lambda request: render_labels([Label.CLAIM])),
                      embedding_backend=HashEmbeddingBackend(dim=8))
    for number, query in enumerate(queries, start=1):
        run_ensemble(query, pool, config, gateway)
        assert gateway.calls("embed") == number * (len(pool) + 1)


def test_run_ensemble_krn_ranks_every_round_anew():
    query = simple_essay("q", "Query topic", [Label.CLAIM])
    config = IclConfig(SelectionStrategy.KRN, k=3, n_rounds=5, prompt=prompt_config(), run_seed=4)
    record = run_ensemble(query, make_pool(), config, echo_gateway(query))
    assert len({frozenset(s.neighbor_ids) for s in record.selections}) > 1


def reworded(essay):
    """``essay`` under its id and title, with other component text and so other raw text."""
    return build_essay(essay.essay_id, essay.title, [
        [("Opening line about the topic. ", None), (f"statement number {i} fails", c.gold_label), (".", None)]
        for i, c in enumerate(essay.components, start=1)])


def respanned(essay):
    """``essay`` with its raw text, but each component ends before the word after its number."""
    return build_essay(essay.essay_id, essay.title, [
        [("Opening line about the topic. ", None), (f"statement number {i}", c.gold_label), (" holds.", None)]
        for i, c in enumerate(essay.components, start=1)])


def ask_one_by_one(query, pool, cache):
    """The record and the requests of a three-round one-by-one run of ``query`` over ``pool``."""
    gold, seen = gold_of(query), []

    def responder(request):
        seen.append(request)
        return gold[component_of(request) - 1].display_name

    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=3, run_seed=5,
                       prompt=PromptConfig(include_info=True, mode=PromptMode.ONE_BY_ONE))
    info = render_info({Label.MAJOR_CLAIM: 1, Label.CLAIM: 2, Label.PREMISE: 3})
    record = run_ensemble(query, pool, config, Gateway(chat_backend=MockChatBackend(responder=responder)),
                          info=info, cache=cache)
    return record, seen


@pytest.mark.parametrize("variant", [reworded, respanned])
def test_a_prompt_cache_serves_no_text_of_another_corpus_with_the_same_ids(variant):
    query = simple_essay("q", "Query topic", [Label.MAJOR_CLAIM, Label.CLAIM, Label.PREMISE])
    pools = [make_pool(), [variant(essay) for essay in make_pool()]]
    assert [e.essay_id for e in pools[0]] == [e.essay_id for e in pools[1]] and pools[0] != pools[1]
    assert (variant is respanned) == all(a.raw_text == b.raw_text for a, b in zip(*pools))
    cache = PromptCache()  # shared by both corpora, which a run never does
    (first, sent), (second, resent) = (ask_one_by_one(query, pool, cache) for pool in pools)
    assert first.selections == second.selections and first.final == second.final
    assert len(sent) == len(resent) == 3 * query.m
    assert all(a.user_text != b.user_text for a, b in zip(sent, resent))
    assert not {chat_request_digest(r) for r in sent} & {chat_request_digest(r) for r in resent}
    for pool, requests in zip(pools, (sent, resent)):
        _, alone = ask_one_by_one(query, pool, None)
        assert [(r.user_text, chat_request_digest(r)) for r in requests] == \
            [(r.user_text, chat_request_digest(r)) for r in alone]
    chosen = {essay_id for s in first.selections for essay_id in s.chosen_ids}
    assert len(cache.bodies) == 2 * len(chosen)


def test_a_run_renders_and_escapes_each_recurring_piece_once(monkeypatch):
    escaped, real_escape = [], gateway_module.escape_piece
    monkeypatch.setattr(gateway_module, "escape_piece", lambda text: escaped.append(text) or real_escape(text))
    rendered = []
    real_render = prompting._render_demo_body
    monkeypatch.setattr(prompting, "_render_demo_body", lambda essay: rendered.append(essay.essay_id) or real_render(essay))
    pool, cache = make_pool(), PromptCache()
    queries = [simple_essay(f"q{i}", f"Query topic {i}", [Label.CLAIM, Label.PREMISE]) for i in range(3)]
    calls = sum(len(ask_one_by_one(query, pool, cache)[1]) for query in queries)
    assert sorted(rendered) == sorted(set(rendered)) == sorted(e.essay_id for e in cache.bodies)
    # Each piece once for the run: a body, a header, a query section, and an instruction, which many calls share.
    counts = Counter(escaped)
    assert all(counts[piece] == 1 for piece in cache.escapes)
    assert sum(piece.startswith("## Query essay") for piece in cache.escapes) == len(queries)
    assert counts.keys() - cache.escapes.keys() == {""}  # "": the empty user text of each essay's first request
    instructions = [piece for piece in cache.escapes if piece.startswith("Which class is")]
    assert len(instructions) == 2 and calls == 3 * 3 * 2  # components 1 and 2 of 2, asked 3 rounds of 3 queries


def test_an_answer_parsed_for_one_label_count_is_still_refused_for_another():
    cache = PromptCache()
    one = simple_essay("q1", "Query topic 1", [Label.CLAIM])
    two = simple_essay("q2", "Query topic 2", [Label.CLAIM, Label.PREMISE])
    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=1, prompt=prompt_config(), run_seed=0)
    answers = ["1. Claim", "1. Claim", "1. Claim\n2. Premise"]
    gateway = Gateway(chat_backend=ScriptedChatBackend(answers))
    assert run_ensemble(one, make_pool(), config, gateway, cache=cache).rounds == ((Label.CLAIM,),)
    record = run_ensemble(two, make_pool(), config, gateway, cache=cache)
    assert record.rounds == ((Label.CLAIM, Label.PREMISE),)
    assert record.responses == (("1. Claim", "1. Claim\n2. Premise"),)  # the first refused: 1 line of 2
    assert cache.parsed == {("1. Claim", 1): (Label.CLAIM,), ("1. Claim\n2. Premise", 2): (Label.CLAIM, Label.PREMISE)}


def test_a_malformed_answer_is_parsed_and_refused_each_time_it_comes(monkeypatch):
    parsed, failed = [], []

    def counting_parse(text, m):  # as the benchmark's tracer counts parse retries
        parsed.append(text)
        try:
            return parse_response(text, m)
        except (prompting.CountMismatch, UnknownLabel):
            failed.append(text)
            raise

    monkeypatch.setattr(ensemble, "parse_response", counting_parse)
    cache = PromptCache()
    config = IclConfig(SelectionStrategy.KRN, k=2, n_rounds=2, prompt=prompt_config(), run_seed=0)
    query = simple_essay("q", "Query topic", [Label.CLAIM])
    gateway = Gateway(chat_backend=ScriptedChatBackend(["garbage", "1. Claim"] * 2))
    record = run_ensemble(query, make_pool(), config, gateway, cache=cache)
    assert record.responses == (("garbage", "1. Claim"),) * 2
    assert failed == ["garbage", "garbage"]  # a retry in each round
    assert parsed == ["garbage", "1. Claim", "garbage"]  # the good answer's labels come from the memo the 2nd time
    assert list(cache.parsed) == [("1. Claim", 1)]



@given(st.lists(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5).map(tuple), max_size=12))
def test_the_vote_memo_counts_as_majority_vote_does(patterns):
    cache = PromptCache()
    for labels in patterns:  # a pattern drawn twice is served from the memo
        counts = Counter(labels)
        assert cache.vote(labels) == (majority_vote(counts), dict(sorted((l.value, n) for l, n in counts.items())))
    assert cache.votes.keys() == set(patterns)


def test_records_that_share_a_vote_pattern_share_no_counts():
    cache, config = PromptCache(), IclConfig(SelectionStrategy.KRN, k=2, n_rounds=3, prompt=prompt_config(), run_seed=0)
    one, two = (simple_essay(f"q{i}", f"Query topic {i}", [Label.CLAIM, Label.PREMISE]) for i in (1, 2))
    first = run_ensemble(one, make_pool(), config, echo_gateway(one), cache=cache)
    second = run_ensemble(two, make_pool(), config, echo_gateway(two), cache=cache)
    assert first.vote_counts == second.vote_counts == ({"Claim": 3}, {"Premise": 3})
    expected = second.to_dict()
    first.vote_counts[0]["Claim"] = 0
    assert second.to_dict() == expected
    assert run_ensemble(two, make_pool(), config, echo_gateway(two), cache=cache).to_dict() == expected
