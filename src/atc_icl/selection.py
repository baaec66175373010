"""Demonstration-essay selection: neighbor ranking plus random subsampling.

Three ranking strategies pick the candidate neighborhood of a query essay:
uniformly at random, by closest argument-component count, or by cosine
similarity of title embeddings. Half of the neighborhood is then sampled
uniformly to form the demonstration set, and the sampled order becomes the
prompt order.

The count ranking walks a run's :class:`EssayPool`, which buckets the pool
by component count once for every query. The title ranking scores each
candidate exactly, except that a title it can bound from a pack's distance
block is scored only if it may reach the top n.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, Sequence

from .corpus import Essay
from .errors import AtcError
from .gateway import EmbeddingVector, Gateway, cosine_similarity


class PoolTooSmall(AtcError):
    """Fewer candidate essays than the requested neighborhood size."""


class EmbeddingUnavailable(AtcError):
    """Title-embedding strategy requested without an embedding gateway."""


class SelectionStrategy(Enum):
    KRN = "krn"
    KNN_LEN = "knn_len"
    KNN_TITLE = "knn_title"


class EssayPool(tuple):
    """A run's candidate essays, in the order given, indexed once for every query.

    ``by_id`` maps each essay id to its essay, and ``by_count`` each component
    count to the ids of the essays that have it, in ascending order.
    """

    def __init__(self, essays: Iterable[Essay]) -> None:
        # tuple.__new__ has already made the tuple of ``essays``.
        self.by_id = {essay.essay_id: essay for essay in self}
        by_count: dict[int, list[str]] = {}
        for essay in sorted(self, key=lambda essay: essay.essay_id):
            by_count.setdefault(essay.m, []).append(essay.essay_id)
        self.by_count = by_count

    def nearest_by_count(self, query: Essay, n: int) -> list[str]:
        """The ids of the ``n`` essays but ``query`` whose component counts are closest to its m, ties by id.

        Walks outward from m: distance d takes the ids of counts m - d and
        m + d, merged by id, until n are found or the pool is walked.
        """
        found: list[str] = []
        unwalked, distance = len(self), 0
        while len(found) < n and unwalked:
            ids = self.by_count.get(query.m - distance, [])
            above = self.by_count.get(query.m + distance) if distance else None
            if above:
                ids = sorted(ids + above) if ids else above
            unwalked -= len(ids)
            found += [essay_id for essay_id in ids if essay_id != query.essay_id]
            distance += 1
        if len(found) < n:
            raise PoolTooSmall(f"need {n} neighbors but only {len(found)} candidates")
        return found[:n]


def essay_pool(essays: Sequence[Essay]) -> EssayPool:
    """``essays`` if it is an :class:`EssayPool` already, else their pool."""
    return essays if isinstance(essays, EssayPool) else EssayPool(essays)


@dataclass(frozen=True)
class SelectionOutcome:
    """Provenance of one selection step: the neighborhood, the picks, the seeds."""

    neighbor_ids: tuple[str, ...]
    chosen_ids: tuple[str, ...]
    rank_seed: int
    pick_seed: int


def rank_neighbors(
    query: Essay,
    pool: Sequence[Essay],
    strategy: SelectionStrategy,
    n_neighbors: int,
    rng_seed: int,
    gateway: Gateway | None = None,
) -> list[str]:
    """Return the ids of the ``n_neighbors`` pool essays closest to ``query``.

    The query essay is excluded from the candidates even if present in the
    pool. Ties under the deterministic strategies break by ascending essay id;
    only the random strategy consumes ``rng_seed``. Count ranking reads the
    index of an :class:`EssayPool`, and indexes any other ``pool`` first.
    """
    if strategy is SelectionStrategy.KNN_LEN:
        return essay_pool(pool).nearest_by_count(query, n_neighbors)
    candidates = [e for e in pool if e.essay_id != query.essay_id]
    if len(candidates) < n_neighbors:
        raise PoolTooSmall(
            f"need {n_neighbors} neighbors but only {len(candidates)} candidates"
        )
    if n_neighbors == 0:
        return []

    candidates.sort(key=lambda e: e.essay_id)
    if strategy is SelectionStrategy.KRN:
        rng = Random(rng_seed)
        return rng.sample([e.essay_id for e in candidates], n_neighbors)

    if gateway is None or gateway.embedding_backend is None:
        raise EmbeddingUnavailable("title-embedding ranking needs an embedding gateway")
    return _rank_by_title(gateway.embed(query.title), candidates, n_neighbors, gateway)


# Bounds of the title-kNN prefilter; see _rank_by_title for why they hold.
_COSINE_SLACK = 2.0**-40
_SAFE_NORMS = (2.0**-400, 2.0**400)


def _rank_by_title(
    query_vec: EmbeddingVector, candidates: Sequence[Essay], n_neighbors: int, gateway: Gateway
) -> list[str]:
    """The ``n_neighbors`` candidates of highest ``cosine_similarity`` to ``query_vec``.

    Returns what sorting every candidate by (-cosine_similarity, essay id)
    would. A candidate with a stored pair of safe norms (hv = |v| and
    d = |q - v| from a pack's distance block, see
    :meth:`Gateway.stored_distances`) is only bounded at first, by the law of
    cosines, |q - v|^2 = |q|^2 + |v|^2 - 2 q.v. Every other candidate is read
    and scored exactly when it is reached, in candidate order, as the
    brute-force sort does, so an error rises at the same candidate.

    The cut is the n-th largest lower bound, an exact cosine being its own
    bounds. A candidate whose upper bound is below the cut has n candidates
    whose exact cosines all exceed its own, so only the others are scored
    exactly, their vectors read through :meth:`Gateway.stored_embedding`.

    Why ``est - slack <= cosine_similarity(v, q) <= est + slack`` holds, with
    u = 2**-53, r = |q| / |v| and slack = _COSINE_SLACK * (r + 1/r + 1).
    The rows of one pack share a dimension. With both norms in _SAFE_NORMS,
    no square, product or difference overflows, and an underflowing product
    or square moves a sum by at most 2**-1075 per coordinate, far below
    u |q| |v| >= 2**-853.

    * The block holds each row's ``hypot`` and each pair of rows' ``dist``
      (both of :mod:`math`), and hq is the query's ``hypot`` here. ``hypot`` and
      ``dist`` are within 1 ulp (2u) of the exact norm in CPython >= 3.10,
      and each coordinate difference rounds by at most u, so hq, hv and d
      are within 3u of |q|, |v| and |q - v|. Rounding hq^2 + hv^2 - d^2 then
      errs by at most 22u (|q|^2 + |v|^2), because
      |q - v|^2 <= 2 (|q|^2 + |v|^2), and dividing by 2 hq hv adds 6u:
      |est - cos| <= 11u (r + 1/r) + 6u.
    * ``cosine_similarity`` sums the rounded products exactly with
      ``fsum``, which is at most 2u |q| |v| off by Cauchy-Schwarz; its two
      norms (2u each), their product and the division add 6u more:
      |exact - cos| <= 8u. Clamping to [-1, 1] only moves it towards cos.

    So the gap is below 16u (r + 1/r + 1), and the slack, 8192u (r + 1/r + 1),
    is 512 times that. A row with an inf or NaN entry has an inf or NaN
    ``hypot``, so it is never bounded.
    """
    hq = math.hypot(*query_vec.values)
    lo, hi = _SAFE_NORMS
    stored = gateway.stored_distances(query_vec, [e.title for e in candidates]) if lo <= hq <= hi else None
    bounds: list[tuple[float, float, float | None]] = []  # (low, high, exact cosine or None) per candidate
    for essay, pair in zip(candidates, stored or [None] * len(candidates)):
        if pair is not None and lo <= pair[0] <= hi:
            hv, d = pair
            estimate = (hq * hq + hv * hv - d * d) / (2.0 * hq * hv)
            slack = _COSINE_SLACK * (hq / hv + hv / hq + 1.0)
            bounds.append((estimate - slack, estimate + slack, None))
        else:
            vector = gateway.embed(essay.title) if pair is None else gateway.stored_embedding(essay.title)
            exact = cosine_similarity(vector, query_vec)
            bounds.append((exact, exact, exact))
    cut = heapq.nlargest(n_neighbors, [low for low, _, _ in bounds])[-1]
    scored = []
    for essay, (_, high, exact) in zip(candidates, bounds):
        if high >= cut:
            if exact is None:
                exact = cosine_similarity(gateway.stored_embedding(essay.title), query_vec)
            scored.append((-exact, essay.essay_id))
    scored.sort()
    return [essay_id for _, essay_id in scored[:n_neighbors]]


def subsample(neighbor_ids: Sequence[str], rng_seed: int) -> list[str]:
    """Uniformly sample half of the neighbors, rounded down.

    The returned order is the sampling order and is used verbatim as the
    prompt order of demonstrations.
    """
    return Random(rng_seed).sample(neighbor_ids, len(neighbor_ids) // 2)


def select_demonstrations(
    query: Essay,
    pool: Sequence[Essay],
    strategy: SelectionStrategy,
    k: int,
    seeds: Sequence[tuple[int, int]],
    gateway: Gateway | None = None,
) -> tuple[SelectionOutcome, ...]:
    """Select every round's k demonstrations from a 2k neighborhood of ``query``.

    ``seeds`` holds one ``(rank_seed, pick_seed)`` pair per round, and one
    outcome is returned per pair. Only random ranking depends on its seed, so
    ``krn`` ranks once per round; the other strategies rank once and every
    round subsamples that neighborhood. ``k = 0`` selects nothing and records
    seeds 0.
    """
    if k == 0:
        return tuple(SelectionOutcome((), (), 0, 0) for _ in seeds)
    if strategy is SelectionStrategy.KRN:
        neighborhoods = [rank_neighbors(query, pool, strategy, 2 * k, rank_seed, gateway)
                         for rank_seed, _ in seeds]
    else:
        neighborhoods = [rank_neighbors(query, pool, strategy, 2 * k, 0, gateway)] * len(seeds)
    return tuple(
        SelectionOutcome(tuple(neighbors), tuple(subsample(neighbors, pick_seed)), rank_seed, pick_seed)
        for neighbors, (rank_seed, pick_seed) in zip(neighborhoods, seeds)
    )
