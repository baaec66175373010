"""n-round ensembling with component-wise majority voting.

Each round selects its own demonstration essays (seeded per round, so rounds
differ while the whole run stays reproducible) and classifies the query
essay. All rounds' selections are made, and all their prompts built in one
call, before the first chat call. Final labels come from a per-component
majority vote over the rounds, ties broken by train-set frequency:
Premise > Claim > Major Claim.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import Essay, Label
from .errors import AtcError, ConfigError
from .gateway import Gateway
from .prompting import InfoBlock, PromptConfig, PromptMode, Unparseable, build_prompt, classify_essay
from .selection import SelectionOutcome, SelectionStrategy, select_demonstrations

#: k and n values used by the published experiment grid (n=1 is the
#: no-ensembling row); anything else is accepted but reported as nonstandard.
STANDARD_K = (3, 5)
STANDARD_N_ROUNDS = (1, 3, 5)


class EmptyVotes(AtcError):
    """Majority vote over an empty sequence is undefined."""


class RoundFailed(AtcError):
    """One ensembling round ended unparseable; the essay gets no record."""


@dataclass(frozen=True)
class IclConfig:
    """Full experiment configuration for one ensembling run.

    The neighborhood size is tied to ``k`` (always 2k). ``k = 0`` is the
    demonstration-free special case used to score fine-tuned models, and
    requires one-by-one mode with a single round.
    """

    strategy: SelectionStrategy
    k: int
    n_rounds: int
    prompt: PromptConfig
    run_seed: int
    model_name: str = "gpt-4"
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigError("k must be non-negative")
        if self.n_rounds < 1:
            raise ConfigError("n_rounds must be positive")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ConfigError(f"temperature must be finite and non-negative, not {self.temperature!r}")
        if self.k == 0:
            if self.prompt.mode is not PromptMode.ONE_BY_ONE:
                raise ConfigError("k=0 (no demonstrations) requires one-by-one mode")
            if self.n_rounds != 1:
                raise ConfigError("k=0 has no selection randomness; use n_rounds=1")

    def is_standard_grid(self) -> bool:
        return self.k in STANDARD_K and self.n_rounds in STANDARD_N_ROUNDS


@dataclass(frozen=True)
class PredictionRecord:
    """Per-essay predictions with full provenance for one run."""

    essay_id: str
    rounds: tuple[tuple[Label, ...], ...]
    final: tuple[Label, ...]
    vote_counts: tuple[Mapping[str, int], ...]
    selections: tuple[SelectionOutcome, ...]
    responses: tuple[tuple[str, ...], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "essay_id": self.essay_id,
            "rounds": [[label.value for label in round_] for round_ in self.rounds],
            "final": [label.value for label in self.final],
            "vote_counts": [dict(counts) for counts in self.vote_counts],
            "selections": [
                {
                    "neighbor_ids": list(outcome.neighbor_ids),
                    "chosen_ids": list(outcome.chosen_ids),
                    "rank_seed": outcome.rank_seed,
                    "pick_seed": outcome.pick_seed,
                }
                for outcome in self.selections
            ],
            "responses": [list(texts) for texts in self.responses],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictionRecord":
        return cls(
            essay_id=data["essay_id"],
            rounds=tuple(tuple(Label(v) for v in round_) for round_ in data["rounds"]),
            final=tuple(Label(v) for v in data["final"]),
            vote_counts=tuple(dict(c) for c in data["vote_counts"]),
            selections=tuple(
                SelectionOutcome(
                    neighbor_ids=tuple(s["neighbor_ids"]),
                    chosen_ids=tuple(s["chosen_ids"]),
                    rank_seed=s["rank_seed"],
                    pick_seed=s["pick_seed"],
                )
                for s in data["selections"]
            ),
            responses=tuple(tuple(texts) for texts in data.get("responses", [])),
        )


def derive_round_seed(run_seed: int, essay_id: str, round_index: int, purpose: str) -> int:
    """Stable 64-bit seed for one (essay, round, purpose) triple.

    Uses SHA-256 rather than Python's salted hash so runs reproduce across
    processes and platforms.
    """
    material = f"{run_seed}|{essay_id}|{round_index}|{purpose}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def majority_vote(votes: Sequence[Label]) -> Label:
    """Most frequent label; ties go to the higher train-set frequency."""
    if not votes:
        raise EmptyVotes("majority vote needs at least one vote")
    counts = Counter(votes)
    return max(Label, key=lambda label: (counts[label], label.tie_break_rank))


def run_ensemble(
    query: Essay,
    pool: Sequence[Essay],
    config: IclConfig,
    gateway: Gateway,
    info: InfoBlock | None = None,
) -> PredictionRecord:
    """Run ``n_rounds`` selection-and-classify rounds and aggregate by vote.

    A round whose answer stays unparseable after retries aborts the whole
    essay with :class:`RoundFailed`; partial votes are never aggregated.
    """
    seeds = [
        (
            derive_round_seed(config.run_seed, query.essay_id, round_index, "rank"),
            derive_round_seed(config.run_seed, query.essay_id, round_index, "pick"),
        )
        for round_index in range(1, config.n_rounds + 1)
    ]
    selections = select_demonstrations(query, pool, config.strategy, config.k, seeds, gateway)
    pool_by_id = {e.essay_id: e for e in pool}
    demo_sets = [[pool_by_id[essay_id] for essay_id in outcome.chosen_ids] for outcome in selections]
    rounds: list[tuple[Label, ...]] = []
    responses: list[tuple[str, ...]] = []
    for round_index, prompt in enumerate(build_prompt(query, demo_sets, config.prompt, info), start=1):
        try:
            labels, raw = classify_essay(query, prompt, config, gateway)
        except Unparseable as exc:
            raise RoundFailed(f"{query.essay_id}: round {round_index} failed") from exc
        rounds.append(tuple(labels))
        responses.append(tuple(raw))

    per_component = list(zip(*rounds))
    final = tuple(majority_vote(list(votes)) for votes in per_component)
    vote_counts = tuple(
        {label.value: count for label, count in sorted(Counter(votes).items(), key=lambda kv: kv[0].value)}
        for votes in per_component
    )
    return PredictionRecord(
        essay_id=query.essay_id,
        rounds=tuple(rounds),
        final=final,
        vote_counts=vote_counts,
        selections=selections,
        responses=tuple(responses),
    )
