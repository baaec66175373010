"""Demonstration-essay selection: neighbor ranking plus random subsampling.

Three ranking strategies pick the candidate neighborhood of a query essay:
uniformly at random, by closest argument-component count, or by cosine
similarity of title embeddings. Half of the neighborhood is then sampled
uniformly to form the demonstration set, and the sampled order becomes the
prompt order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Sequence

from .corpus import Essay
from .errors import AtcError
from .gateway import Gateway, cosine_similarity


class PoolTooSmall(AtcError):
    """Fewer candidate essays than the requested neighborhood size."""


class EmbeddingUnavailable(AtcError):
    """Title-embedding strategy requested without an embedding gateway."""


class BadK(AtcError):
    """Subsample size must be exactly half the neighborhood size."""


class SelectionStrategy(Enum):
    KRN = "krn"
    KNN_LEN = "knn_len"
    KNN_TITLE = "knn_title"

    @property
    def uses_rank_seed(self) -> bool:
        """Whether the ranking depends on its seed; only random ranking does.

        A ranking that ignores the seed is the same in every round, so it can
        be computed once per query and shared by all rounds.
        """
        return self is SelectionStrategy.KRN


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
    candidates = sorted(
        (e for e in pool if e.essay_id != query.essay_id), key=lambda e: e.essay_id
    )
    if len(candidates) < n_neighbors:
        raise PoolTooSmall(
            f"need {n_neighbors} neighbors but only {len(candidates)} candidates"
        )
    if n_neighbors == 0:
        return []

    if strategy is SelectionStrategy.KRN:
        rng = Random(rng_seed)
        return rng.sample([e.essay_id for e in candidates], n_neighbors)

    if strategy is SelectionStrategy.KNN_LEN:
        ranked = sorted(candidates, key=lambda e: (abs(e.m - query.m), e.essay_id))
        return [e.essay_id for e in ranked[:n_neighbors]]

    if gateway is None or gateway.embedding_backend is None:
        raise EmbeddingUnavailable("title-embedding ranking needs an embedding gateway")
    query_vec = gateway.embed(query.title)
    scored = [
        (-cosine_similarity(gateway.embed(e.title), query_vec), e.essay_id)
        for e in candidates
    ]
    scored.sort()
    return [essay_id for _, essay_id in scored[:n_neighbors]]


def subsample(neighbor_ids: Sequence[str], k: int, rng_seed: int) -> list[str]:
    """Uniformly sample ``k`` of the neighbors, ``k`` = half the neighborhood.

    The returned order is the sampling order and is used verbatim as the
    prompt order of demonstrations.
    """
    if 2 * k != len(neighbor_ids):
        raise BadK(f"k={k} must be exactly half of the neighborhood size {len(neighbor_ids)}")
    if k == 0:
        return []
    return Random(rng_seed).sample(list(neighbor_ids), k)


def select_demonstrations(
    query: Essay,
    pool: Sequence[Essay],
    strategy: SelectionStrategy,
    k: int,
    rank_seed: int,
    pick_seed: int,
    gateway: Gateway | None = None,
    neighbors: Sequence[str] | None = None,
) -> SelectionOutcome:
    """Rank a 2k neighborhood, then sample k demonstrations from it.

    ``neighbors``, when given, is the 2k neighborhood already ranked for
    ``query`` and is used instead of ranking again; pass it only for a
    strategy that ignores ``rank_seed``.
    """
    if neighbors is None:
        neighbors = rank_neighbors(query, pool, strategy, 2 * k, rank_seed, gateway)
    chosen = subsample(neighbors, k, pick_seed)
    return SelectionOutcome(
        neighbor_ids=tuple(neighbors),
        chosen_ids=tuple(chosen),
        rank_seed=rank_seed,
        pick_seed=pick_seed,
    )
