"""Neighbor ranking strategies and the k-of-2k subsample."""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from atc_icl.corpus import Label
from atc_icl.gateway import (
    Gateway,
    HashEmbeddingBackend,
    MappingEmbeddingBackend,
    ResponseStore,
    StoreEmbeddingBackend,
    cosine_similarity,
    embedding_values,
)
from atc_icl.selection import (
    BadK,
    EmbeddingUnavailable,
    PoolTooSmall,
    SelectionStrategy,
    rank_neighbors,
    select_demonstrations,
    subsample,
)
from conftest import simple_essay


def essays_with_counts(counts: dict[str, int]):
    return [
        simple_essay(essay_id, f"Title of {essay_id}", [Label.PREMISE] * m)
        for essay_id, m in counts.items()
    ]


def mapping_gateway(vectors: dict[str, list[float]]):
    return Gateway(embedding_backend=MappingEmbeddingBackend(vectors))


def test_knn_len_picks_closest_component_counts():
    query = essays_with_counts({"q": 7})[0]
    pool = essays_with_counts({"a": 7, "b": 3, "c": 8, "d": 12})
    ranked = rank_neighbors(query, pool, SelectionStrategy.KNN_LEN, 2, rng_seed=0)
    assert ranked == ["a", "c"]


def test_knn_len_breaks_ties_by_essay_id():
    query = essays_with_counts({"q": 5})[0]
    pool = essays_with_counts({"d": 6, "b": 4, "a": 6, "c": 4})
    ranked = rank_neighbors(query, pool, SelectionStrategy.KNN_LEN, 4, rng_seed=0)
    assert ranked == ["a", "b", "c", "d"]


def test_knn_title_identical_embedding_ranks_first():
    query = simple_essay("q", "Query title", [Label.CLAIM])
    pool = [simple_essay(f"e{i}", f"Pool title {i}", [Label.CLAIM]) for i in range(3)]
    vectors = {
        "Query title": [1.0, 0.0],
        "Pool title 0": [0.0, 1.0],
        "Pool title 1": [1.0, 0.0],
        "Pool title 2": [0.7, 0.7],
    }
    ranked = rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 2, 0, mapping_gateway(vectors))
    assert ranked[0] == "e1"
    assert ranked == ["e1", "e2"]


def test_knn_title_without_gateway_fails():
    query = simple_essay("q", "Query title", [Label.CLAIM])
    pool = [simple_essay("a", "A", [Label.CLAIM]), simple_essay("b", "B", [Label.CLAIM])]
    with pytest.raises(EmbeddingUnavailable):
        rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 2, 0)


def test_pool_too_small():
    query = simple_essay("q", "Query title", [Label.CLAIM])
    pool = [simple_essay("a", "A", [Label.CLAIM])]
    with pytest.raises(PoolTooSmall):
        rank_neighbors(query, pool, SelectionStrategy.KRN, 2, 0)


def test_query_excluded_even_if_present_in_pool():
    query = simple_essay("q", "Query title", [Label.CLAIM])
    pool = [query] + [simple_essay(f"e{i}", f"T{i}", [Label.CLAIM]) for i in range(4)]
    for strategy in (SelectionStrategy.KRN, SelectionStrategy.KNN_LEN):
        for seed in range(5):
            assert "q" not in rank_neighbors(query, pool, strategy, 4, seed)


def test_knn_title_matches_exhaustive_cosine_oracle():
    rng = Random(404)
    for trial in range(60):
        size = rng.randint(4, 20)
        dim = 8
        pool = [simple_essay(f"e{i:02d}", f"Pool {trial}-{i}", [Label.CLAIM]) for i in range(size)]
        query = simple_essay("q", f"Query {trial}", [Label.CLAIM])
        vectors = {e.title: [rng.gauss(0, 1) for _ in range(dim)] for e in pool}
        vectors[query.title] = [rng.gauss(0, 1) for _ in range(dim)]
        gateway = mapping_gateway(vectors)
        n = rng.randrange(2, size + 1, 2)
        ranked = rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, n, 0, gateway)

        # Brute-force oracle: compute every cosine, sort, take the prefix.
        oracle_gateway = mapping_gateway(vectors)
        query_vec = oracle_gateway.embed(query.title)
        scored = sorted(
            ((-cosine_similarity(oracle_gateway.embed(e.title), query_vec), e.essay_id) for e in pool)
        )
        assert ranked == [essay_id for _, essay_id in scored[:n]]


def test_krn_is_seed_deterministic_and_uniform():
    pool = [simple_essay(f"e{i:02d}", f"T{i}", [Label.CLAIM]) for i in range(12)]
    query = simple_essay("q", "Q", [Label.CLAIM])
    first = rank_neighbors(query, pool, SelectionStrategy.KRN, 6, rng_seed=99)
    second = rank_neighbors(query, pool, SelectionStrategy.KRN, 6, rng_seed=99)
    assert first == second

    counts = {e.essay_id: 0 for e in pool}
    draws = 4000
    for seed in range(draws):
        for essay_id in rank_neighbors(query, pool, SelectionStrategy.KRN, 6, seed):
            counts[essay_id] += 1
    expected = draws * 6 / 12
    for essay_id, count in counts.items():
        assert abs(count / draws - 0.5) < 0.03, essay_id


def test_subsample_deterministic_and_order_preserving():
    ids = [f"e{i}" for i in range(10)]
    picked = subsample(ids, 5, rng_seed=1234)
    assert picked == subsample(ids, 5, rng_seed=1234)
    assert len(picked) == 5 and len(set(picked)) == 5
    assert set(picked) <= set(ids)


def test_subsample_two_choose_one():
    seen = set()
    for seed in range(20):
        picked = subsample(["a", "b"], 1, seed)
        assert picked in (["a"], ["b"])
        assert picked == subsample(["a", "b"], 1, seed)
        seen.add(picked[0])
    assert seen == {"a", "b"}


def test_subsample_uniformity_monte_carlo():
    ids = [f"e{i}" for i in range(10)]
    counts = {essay_id: 0 for essay_id in ids}
    draws = 10_000
    for seed in range(draws):
        for essay_id in subsample(ids, 5, seed):
            counts[essay_id] += 1
    for essay_id, count in counts.items():
        assert abs(count / draws - 0.5) < 0.03, essay_id


def test_bad_k_rejected():
    with pytest.raises(BadK):
        subsample([f"e{i}" for i in range(10)], 3, 0)
    with pytest.raises(BadK):
        subsample([], 1, 0)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=2, max_value=5))
def test_select_demonstrations_is_deterministic(seed, k):
    pool = [simple_essay(f"e{i:02d}", f"T{i}", [Label.CLAIM] * (i % 4 + 1)) for i in range(12)]
    query = simple_essay("q", "Q", [Label.CLAIM, Label.PREMISE])
    first = select_demonstrations(query, pool, SelectionStrategy.KRN, k, seed, seed + 1)
    second = select_demonstrations(query, pool, SelectionStrategy.KRN, k, seed, seed + 1)
    assert first == second
    assert len(first.neighbor_ids) == 2 * k
    assert len(first.chosen_ids) == k
    assert set(first.chosen_ids) <= set(first.neighbor_ids)
    assert "q" not in first.neighbor_ids


def test_knn_title_over_a_store_mixing_packed_and_legacy_records(tmp_path, small_corpus):
    hashed = HashEmbeddingBackend(dim=1536)
    store = ResponseStore(tmp_path)
    recorder = StoreEmbeddingBackend(store, hashed.model_name, hashed)
    for essay in small_corpus.essays:
        recorder.embed(essay.title)
    # Rewrite every other record the way vectors were stored before they were packed.
    paths = sorted((tmp_path / "embed").glob("*.json"))
    for path in paths[::2]:
        record = json.loads(path.read_text(encoding="utf-8"))
        record["vector"] = list(embedding_values(record, path))
        del record["vector_f64"]
        path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    forms = [set(json.loads(path.read_text(encoding="utf-8"))) & {"vector", "vector_f64"} for path in paths]
    assert forms.count({"vector"}) == (len(paths) + 1) // 2 and forms.count({"vector_f64"}) == len(paths) // 2

    replay = Gateway(embedding_backend=StoreEmbeddingBackend(store, hashed.model_name))
    direct = Gateway(embedding_backend=HashEmbeddingBackend(dim=1536))
    pool = small_corpus.train_essays()
    for query in small_corpus.test_essays():
        ranked = [rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 6, 0, gateway)
                  for gateway in (replay, direct)]
        assert ranked[0] == ranked[1]
    assert replay.live_calls() == 0
