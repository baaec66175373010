"""Demonstration-essay selection: neighbor ranking plus random subsampling.

Three ranking strategies pick the candidate neighborhood of a query essay:
uniformly at random, by closest argument-component count, or by cosine
similarity of title embeddings. Half of the neighborhood is then sampled
uniformly to form the demonstration set, and the sampled order becomes the
prompt order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Sequence

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
    only the random strategy consumes ``rng_seed``.
    """
    candidates = [e for e in pool if e.essay_id != query.essay_id]
    if len(candidates) < n_neighbors:
        raise PoolTooSmall(
            f"need {n_neighbors} neighbors but only {len(candidates)} candidates"
        )
    if n_neighbors == 0:
        return []

    if strategy is SelectionStrategy.KNN_LEN:
        # One keyed pass: the n smallest (component-count distance, id) pairs, in order.
        m = query.m
        nearest = heapq.nsmallest(n_neighbors, [(abs(len(e.components) - m), e.essay_id) for e in candidates])
        return [essay_id for _, essay_id in nearest]

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
    would, but runs the exact ``fsum`` cosine only near the cut. Candidates
    are embedded in the given order, and each is first bounded by a cheap
    estimate from the law of cosines, |q - v|^2 = |q|^2 + |v|^2 - 2 q.v,
    with ``math.hypot`` and ``math.dist``. A min-heap keeps the n best lower
    bounds; its minimum, the cut, only grows. A vector is held only while its
    upper bound reaches the cut, and the held ones get the exact cosine.
    Every true top-n candidate survives: one whose upper bound is below the
    cut has n candidates whose exact cosines all exceed its own.

    When ``query_vec`` and a candidate's vector are rows of one embedding
    pack with a distance block (see :meth:`Gateway.stored_distances`), hv
    and d are read from that block, and the vector itself only if it is held
    at the end or gets the exact cosine at once. The block holds the very
    floats ``math.hypot`` and ``math.dist`` return here (``dist`` is
    symmetric), so the estimates, the held set and the result are the same
    whichever way they came.

    Why ``est - slack <= cosine_similarity(v, q) <= est + slack`` holds, with
    u = 2**-53, r = |q| / |v| and slack = _COSINE_SLACK * (r + 1/r + 1).
    With both norms in _SAFE_NORMS and equal dimensions, no square, product
    or difference overflows, and an underflowing product or square moves a
    sum by at most 2**-1075 per coordinate, far below u |q| |v| >= 2**-853.

    * ``hypot`` and ``dist`` are within 1 ulp (2u) of the exact norm in
      CPython >= 3.10, and each coordinate difference rounds by at most u,
      so hq, hv and d are within 3u of |q|, |v| and |q - v|. Rounding
      hq^2 + hv^2 - d^2 then errs by at most 22u (|q|^2 + |v|^2), because
      |q - v|^2 <= 2 (|q|^2 + |v|^2), and dividing by 2 hq hv adds 6u:
      |est - cos| <= 11u (r + 1/r) + 6u.
    * ``cosine_similarity`` sums the rounded products exactly with
      ``fsum``, which is at most 2u |q| |v| off by Cauchy-Schwarz; its two
      norms (2u each), their product and the division add 6u more:
      |exact - cos| <= 8u. Clamping to [-1, 1] only moves it towards cos.

    So the gap is below 16u (r + 1/r + 1), and the slack, 8192u (r + 1/r + 1),
    is 512 times that. Any other vector (another dimension, or a norm that
    is zero, subnormal, huge, inf or NaN) gets the exact cosine as soon as
    it is reached, so DimensionMismatch, ZeroNorm and NonFiniteCosine rise
    at the same candidate as they would without the prefilter. An inf or NaN
    entry makes ``hypot`` inf or NaN, so such vectors always take this path.
    """
    q = query_vec.values
    hq = math.hypot(*q)
    lo, hi = _SAFE_NORMS
    query_safe = lo <= hq <= hi
    stored = gateway.stored_distances(query_vec, [e.title for e in candidates]) if query_safe else None
    lower_bounds: list[float] = []  # min-heap of the n best lower bounds
    held: list[tuple] = []  # min-heap of (upper bound, index, essay id, vector or None, exact cosine or None)
    cut = -math.inf
    for index, essay in enumerate(candidates):
        pair = stored[index] if stored else None
        if pair is None:
            vector = gateway.embed(essay.title)
            hv = math.hypot(*vector.values)
        else:  # hv and d from the pack; the vector is read only if it is needed
            vector, (hv, d) = None, pair
        if query_safe and lo <= hv <= hi and (vector is None or len(vector.values) == len(q)):
            if vector is not None:
                d = math.dist(q, vector.values)
            estimate = (hq * hq + hv * hv - d * d) / (2.0 * hq * hv)
            slack = _COSINE_SLACK * (hq / hv + hv / hq + 1.0)
            low, high, exact = estimate - slack, estimate + slack, None
        else:
            if vector is None:
                vector = gateway.stored_embedding(essay.title)
            low = high = exact = cosine_similarity(vector, query_vec)
        if len(lower_bounds) < n_neighbors:
            heapq.heappush(lower_bounds, low)
        elif low > lower_bounds[0]:
            heapq.heapreplace(lower_bounds, low)
        if len(lower_bounds) == n_neighbors:
            cut = lower_bounds[0]
        if high >= cut:
            heapq.heappush(held, (high, index, essay.essay_id, vector, exact))
        while held and held[0][0] < cut:
            heapq.heappop(held)
    scored = []
    for _, index, essay_id, vector, exact in held:
        if exact is None:
            if vector is None:
                vector = gateway.stored_embedding(candidates[index].title)
            exact = cosine_similarity(vector, query_vec)
        scored.append((-exact, essay_id))
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
