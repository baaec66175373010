"""Neighbor ranking strategies and the k-of-2k subsample."""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import tracemalloc
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from atc_icl import selection
from atc_icl.corpus import Label
from atc_icl.errors import AtcError
from atc_icl.gateway import (
    BackendTag,
    EmbeddingVector,
    Gateway,
    HashEmbeddingBackend,
    ResponseStore,
    StoreEmbeddingBackend,
    cosine_similarity,
    embedding_digest,
)
from atc_icl.selection import (
    EmbeddingUnavailable,
    EssayPool,
    PoolTooSmall,
    SelectionStrategy,
    rank_neighbors,
    select_demonstrations,
    subsample,
)
from conftest import MappingEmbeddingBackend, simple_essay


def essays_with_counts(counts: dict[str, int]):
    return [
        simple_essay(essay_id, f"Title of {essay_id}", [Label.PREMISE] * m)
        for essay_id, m in counts.items()
    ]


def mapping_gateway(vectors: dict[str, list[float]]):
    return Gateway(embedding_backend=MappingEmbeddingBackend(vectors))


def exhaustive_ranking(query, pool, n, gateway):
    """Oracle: every candidate through ``cosine_similarity``, sorted by (-cosine, id)."""
    query_vec = gateway.embed(query.title)
    candidates = sorted((e for e in pool if e.essay_id != query.essay_id), key=lambda e: e.essay_id)
    scored = sorted((-cosine_similarity(gateway.embed(e.title), query_vec), e.essay_id) for e in candidates)
    return [essay_id for _, essay_id in scored[:n]]


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


@settings(max_examples=200)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=14), st.lists(st.integers(0, 8), max_size=3),
       st.randoms(use_true_random=False), st.integers(0, 15))
@example([4, 6, 6, 4, 5], [5], Random(0), 4)  # counts 4 and 6 tie at distance 1 on both sides of m = 5
def test_knn_len_one_pass_ranking_equals_the_sorted_oracle(counts, outside_counts, rng, n):
    """One pool index ranks every query, in the pool or not, as sorting its candidates by (count distance, id) does."""
    ids = [f"e{i:02d}" for i in range(len(counts))]
    rng.shuffle(ids)  # pool order is not id order
    essays = essays_with_counts(dict(zip(ids, counts)))
    pool = EssayPool(essays)
    # Queries outside the pool, with ids that sort before and after the pool's.
    outside = essays_with_counts({f"{'a' if i % 2 else 'x'}{i}": m for i, m in enumerate(outside_counts)})
    for query in essays + outside:
        candidates = [e for e in essays if e.essay_id != query.essay_id]
        size = min(n, len(candidates))
        oracle = [e.essay_id for e in sorted(candidates, key=lambda e: (abs(e.m - query.m), e.essay_id))[:size]]
        assert rank_neighbors(query, pool, SelectionStrategy.KNN_LEN, size, rng_seed=0) == oracle
        assert rank_neighbors(query, essays, SelectionStrategy.KNN_LEN, size, rng_seed=0) == oracle  # indexed on the call
        assert rank_neighbors(query, pool, SelectionStrategy.KNN_LEN, 0, rng_seed=0) == []
        message = f"^need {len(candidates) + 1} neighbors but only {len(candidates)} candidates$"
        for ranked in (pool, essays):
            with pytest.raises(PoolTooSmall, match=message):
                rank_neighbors(query, ranked, SelectionStrategy.KNN_LEN, len(candidates) + 1, rng_seed=0)


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
        assert ranked == exhaustive_ranking(query, pool, n, mapping_gateway(vectors))


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
    picked = subsample(ids, rng_seed=1234)
    assert picked == subsample(ids, rng_seed=1234)
    assert len(picked) == 5 and len(set(picked)) == 5
    assert set(picked) <= set(ids)


def test_subsample_two_choose_one():
    seen = set()
    for seed in range(20):
        picked = subsample(["a", "b"], seed)
        assert picked in (["a"], ["b"])
        assert picked == subsample(["a", "b"], seed)
        seen.add(picked[0])
    assert seen == {"a", "b"}


def test_subsample_uniformity_monte_carlo():
    ids = [f"e{i}" for i in range(10)]
    counts = {essay_id: 0 for essay_id in ids}
    draws = 10_000
    for seed in range(draws):
        for essay_id in subsample(ids, seed):
            counts[essay_id] += 1
    for essay_id, count in counts.items():
        assert abs(count / draws - 0.5) < 0.03, essay_id


@given(st.lists(st.text(max_size=3), max_size=12), st.integers(min_value=0, max_value=2**64))
def test_subsample_draws_half_the_neighborhood(ids, seed):
    assert subsample(ids, seed) == Random(seed).sample(ids, len(ids) // 2)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=2, max_value=5), st.sampled_from(SelectionStrategy))
def test_select_demonstrations_is_deterministic(seed, k, strategy):
    pool = [simple_essay(f"e{i:02d}", f"T{i}", [Label.CLAIM] * (i % 4 + 1)) for i in range(12)]
    query = simple_essay("q", "Q", [Label.CLAIM, Label.PREMISE])
    seeds = [(seed, seed + 1), (seed + 2, seed + 3)]
    gateway = Gateway(embedding_backend=HashEmbeddingBackend())
    first = select_demonstrations(query, pool, strategy, k, seeds, gateway)
    second = select_demonstrations(query, pool, strategy, k, seeds, gateway)
    assert first == second
    assert select_demonstrations(query, EssayPool(pool), strategy, k, seeds, gateway) == first  # a run's pool
    assert [(o.rank_seed, o.pick_seed) for o in first] == seeds
    for outcome in first:
        assert len(outcome.neighbor_ids) == 2 * k
        assert len(outcome.chosen_ids) == k
        assert set(outcome.chosen_ids) <= set(outcome.neighbor_ids)
        assert "q" not in outcome.neighbor_ids


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
        record["vector"] = list(store.get_embedding(path.stem))
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
    assert sum(n for (_, tag), n in replay.counts.items() if tag is BackendTag.LIVE) == 0


class RecordingBackend(MappingEmbeddingBackend):
    """Mapping embeddings that remember which titles were embedded, in order."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.embedded = []

    def embed(self, text):
        self.embedded.append(text)
        return super().embed(text)


def outcome(rank, vectors, query, pool, n):
    """(ranking or raised error, titles embedded in order) of one ranking over ``vectors``."""
    backend = RecordingBackend(vectors)
    try:
        result = rank(query, pool, n, Gateway(embedding_backend=backend))
    except Exception as exc:  # the oracle and the prefilter must fail alike
        result = (type(exc), str(exc))
    return result, backend.embedded


PROPERTY_POOL = [simple_essay(f"e{i:02d}", f"Title {i}", [Label.CLAIM]) for i in range(24)]
PROPERTY_QUERY = simple_essay("q", "Query", [Label.CLAIM])
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan]


@st.composite
def title_vectors(draw):
    """Query and pool vectors full of exact and near ties, extreme scales and special values."""
    dim = draw(st.integers(1, 6))
    finite = st.floats(-4, 4, allow_subnormal=False)
    drawn = [draw(st.lists(finite, min_size=dim, max_size=dim))]
    for _ in range(len(PROPERTY_POOL)):
        base = list(draw(st.sampled_from(drawn)))
        kind = draw(st.sampled_from(["fresh", "duplicate", "nextafter", "scaled", "special"]))
        if kind == "fresh":
            base = draw(st.lists(finite, min_size=dim, max_size=dim))
        elif kind == "nextafter":
            i = draw(st.integers(0, dim - 1))
            base[i] = math.nextafter(base[i], draw(st.sampled_from([math.inf, -math.inf])))
        elif kind == "scaled":
            scale = math.ldexp(1.0, draw(st.integers(-1074, 1023)))
            base = [x * scale for x in base]
        elif kind == "special":
            base[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(SPECIAL))
        drawn.append(base)
    other_dim = draw(st.none() | st.integers(0, len(drawn) - 1))
    if other_dim is not None:
        drawn[other_dim] = drawn[other_dim] + [1.0]
    query_vec = draw(st.sampled_from(drawn))
    vectors = {e.title: v for e, v in zip(PROPERTY_POOL, drawn[1:])}
    vectors[PROPERTY_QUERY.title] = query_vec
    return vectors


@settings(max_examples=300, deadline=None)
@given(title_vectors(), st.integers(1, len(PROPERTY_POOL)), st.integers(2, len(PROPERTY_POOL)))
def test_knn_title_prefilter_equals_the_exhaustive_oracle(vectors, n, pool_size):
    def prefiltered(query, pool, n, gateway):
        return rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, n, 0, gateway)

    args = (vectors, PROPERTY_QUERY, PROPERTY_POOL[:pool_size], min(n, pool_size))
    assert outcome(prefiltered, *args) == outcome(exhaustive_ranking, *args)


def ranked_through(gateway, query, pool, n):
    """(ranking or raised error, digests of the vectors scored exactly, in order) of one title-kNN ranking."""
    scored = []

    def recording(vector, query_vec):
        scored.append(vector.source_text_digest)
        return cosine_similarity(vector, query_vec)

    with mock.patch.object(selection, "cosine_similarity", recording):
        try:
            result = rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, n, 0, gateway)
        except AtcError as exc:
            result = (type(exc), str(exc))
    return result, scored


def brute_force(vectors, query, pool, n, model):
    """(ranking or raised error, digest of the candidate it rose at): every candidate scored, sorted by (-cosine, id)."""
    def embedded(title):
        return EmbeddingVector(tuple(vectors[title]), embedding_digest(model, title))

    scored = []
    for essay in sorted((e for e in pool if e.essay_id != query.essay_id), key=lambda e: e.essay_id):
        try:
            scored.append((-cosine_similarity(embedded(essay.title), embedded(query.title)), essay.essay_id))
        except AtcError as exc:
            return (type(exc), str(exc)), embedded(essay.title).source_text_digest
    return [essay_id for _, essay_id in sorted(scored)[:n]], None


@settings(max_examples=200, deadline=None)
@given(title_vectors(), st.integers(1, len(PROPERTY_POOL)), st.integers(2, len(PROPERTY_POOL)), st.booleans(),
       st.sets(st.sampled_from([e.title for e in PROPERTY_POOL] + [PROPERTY_QUERY.title]), max_size=3))
def test_knn_title_from_a_distance_block_equals_ranking_without_it(vectors, n, pool_size, shared_title, unpacked):
    """A store whose pack has a distance block ranks as the same vectors served without it, and as the brute-force sort.

    Without the block every candidate is scored once, in candidate order;
    with it, none is scored twice. The pack holds every title whose vector
    has the query's length, except ``unpacked``; with ``shared_title`` a pool
    essay has the query's title.
    """
    model = "m"
    pool = PROPERTY_POOL[:pool_size]
    if shared_title:
        pool = pool + [simple_essay("e99", PROPERTY_QUERY.title, [Label.CLAIM])]
    n = min(n, len(pool))
    dim = len(vectors[PROPERTY_QUERY.title])
    with tempfile.TemporaryDirectory() as tmp:
        store = ResponseStore(tmp)
        for title, values in vectors.items():
            store.put_embedding(model, title, values)
        store.put_embedding_pack(model, [embedding_digest(model, title) for title, values in vectors.items()
                                         if len(values) == dim and title not in unpacked])
        gateways = [Gateway(embedding_backend=MappingEmbeddingBackend(vectors, model)),
                    Gateway(embedding_backend=StoreEmbeddingBackend(ResponseStore(tmp), model))]
        (plain, plain_scored), (blocked, blocked_scored) = [ranked_through(g, PROPERTY_QUERY, pool, n)
                                                            for g in gateways]
    assert blocked == plain
    oracle, failed_at = brute_force(vectors, PROPERTY_QUERY, pool, n, model)
    assert blocked == oracle
    in_order = [embedding_digest(model, e.title) for e in sorted(pool, key=lambda e: e.essay_id)]
    if failed_at is None:
        assert gateways[0].calls("embed") == gateways[1].calls("embed") == 1 + len(pool)  # the query, then each candidate
    else:
        assert blocked_scored[-1] == failed_at  # the same error, at the same candidate
        in_order = in_order[:in_order.index(failed_at) + 1]
    assert plain_scored == in_order
    assert len(set(blocked_scored)) == len(blocked_scored)


def test_knn_title_counts_each_pool_title_once_whichever_way_it_is_read(tmp_path):
    """Pool titles from the block, one with a huge stored norm, one outside the pack, one that is the query's title."""
    vectors = {"Query": [1.0, 0.0], "Huge": [2.0**500, 2.0**499], "Near": [0.9, 0.1], "Far": [0.0, 1.0],
               "Outside": [1.0, 1.0]}
    store = ResponseStore(tmp_path)
    for title, values in vectors.items():
        store.put_embedding("m", title, values)
    assert store.put_embedding_pack("m", [embedding_digest("m", t) for t in vectors if t != "Outside"])
    pool = [simple_essay(f"e{i}", title, [Label.CLAIM]) for i, title in enumerate(["Huge", "Near", "Far", "Outside",
                                                                                   "Query"])]
    query = simple_essay("q", "Query", [Label.CLAIM])
    packed = Gateway(embedding_backend=StoreEmbeddingBackend(ResponseStore(tmp_path), "m"))
    read = []
    embed = packed.embedding_backend.embed
    packed.embedding_backend.embed = lambda text: read.append(text) or embed(text)
    for n in (1, 2, 4):
        read.clear()
        plain = Gateway(embedding_backend=MappingEmbeddingBackend(vectors, "m"))
        ranked, scored = ranked_through(packed, query, pool, n)
        assert ranked == ranked_through(plain, query, pool, n)[0]
        assert packed.calls("embed") == plain.calls("embed") == 6  # the query, then each pool title once
        assert packed.counts["embed", BackendTag.REPLAY] == 6
        packed.counts.clear()
        # Read: the query, "Huge" and "Outside" (scored exactly at once), then the held
        # candidates of the pack, which are scored exactly at the end; each vector read is scored.
        assert read[:3] == ["Query", "Huge", "Outside"]
        assert [embedding_digest("m", t) for t in read[1:]] == scored


@pytest.fixture(scope="module")
def ada_replay(synth_corpus, tmp_path_factory):
    """Replay gateway over 1536-dim hash vectors of every title of the full-size corpus."""
    hashed = HashEmbeddingBackend(dim=1536)
    store = ResponseStore(tmp_path_factory.mktemp("ada-store"))
    recorder = StoreEmbeddingBackend(store, hashed.model_name, hashed)
    for essay in synth_corpus.essays:
        recorder.embed(essay.title)
    return Gateway(embedding_backend=StoreEmbeddingBackend(store, hashed.model_name))


def test_knn_title_computes_exact_cosines_for_the_winners_only(synth_corpus, ada_replay, tmp_path, monkeypatch):
    exact_calls = []

    def counting(a, b):
        exact_calls.append(a)
        return cosine_similarity(a, b)

    packed = packed_replay(ada_replay.embedding_backend.store.root, tmp_path, synth_corpus.essays)
    monkeypatch.setattr(selection, "cosine_similarity", counting)
    pool = synth_corpus.train_essays()
    assert len(pool) == 322
    for query in synth_corpus.test_essays()[:3]:
        exact_calls.clear()
        ranked = rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 10, 0, packed)
        assert len(exact_calls) == 10
        assert ranked == exhaustive_ranking(query, pool, 10, ada_replay)


def test_knn_title_holds_few_pool_vectors_at_once(synth_corpus, ada_replay):
    pool = synth_corpus.train_essays()
    query = synth_corpus.test_essays()[0]
    tracemalloc.start()
    try:
        vector = ada_replay.embed(query.title)
        one_vector = tracemalloc.get_traced_memory()[0]
        del vector
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 10, 0, ada_replay)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < len(pool) * one_vector / 8


def packed_replay(records_root, tmp_path, essays):
    """A replay gateway over a copy of ``records_root`` whose pack holds the titles of ``essays``."""
    shutil.copytree(records_root, tmp_path, dirs_exist_ok=True)
    store = ResponseStore(tmp_path)
    model = HashEmbeddingBackend(dim=1536).model_name
    assert store.put_embedding_pack(model, [embedding_digest(model, essay.title) for essay in essays])
    return Gateway(embedding_backend=StoreEmbeddingBackend(ResponseStore(tmp_path), model))


def test_knn_title_ranks_alike_from_a_pack_records_or_both(synth_corpus, ada_replay, tmp_path):
    records_root = ada_replay.embedding_backend.store.root
    pool = synth_corpus.train_essays()
    packed = packed_replay(records_root, tmp_path / "packed", synth_corpus.essays)
    mixed = packed_replay(records_root, tmp_path / "mixed", synth_corpus.essays[::2])
    for query in synth_corpus.test_essays()[:5]:
        ranked = [rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 10, 0, gateway)
                  for gateway in (ada_replay, packed, mixed)]
        assert ranked[0] == ranked[1] == ranked[2]
    for path in (tmp_path / "packed" / "embed").glob("*.json"):
        path.unlink()  # only the pack can serve the titles now
    model = packed.embedding_backend.model_name
    pack_only = ResponseStore(tmp_path / "packed")
    for digest in [embedding_digest(model, essay.title) for essay in synth_corpus.essays[:2]]:
        values = pack_only.get_embedding(digest)
        assert type(values) is tuple and values == ada_replay.embedding_backend.store.get_embedding(digest)


def test_knn_title_holds_few_pool_vectors_at_once_from_a_pack(synth_corpus, ada_replay, tmp_path):
    pool = synth_corpus.train_essays()
    query = synth_corpus.test_essays()[0]
    gateway = packed_replay(ada_replay.embedding_backend.store.root, tmp_path, synth_corpus.essays)
    gateway.embed(query.title)  # reads the pack's header, so it is not counted below
    tracemalloc.start()
    try:
        vector = gateway.embed(query.title)
        one_vector = tracemalloc.get_traced_memory()[0]
        del vector
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rank_neighbors(query, pool, SelectionStrategy.KNN_TITLE, 10, 0, gateway)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < len(pool) * one_vector / 8
