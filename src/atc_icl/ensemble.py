"""n-round ensembling with component-wise majority voting.

Each round selects its own demonstration essays (seeded per round, so rounds
differ while the whole run stays reproducible) and classifies the query
essay. All rounds' selections are made, and all their prompts built in one
call, before the first chat call. :func:`run_ensemble` then asks each round
itself: it sends the round's calls, retries malformed answers and parses
them, while the ``prompting`` module renders the texts. A round's requests
are extended from one request over the round's prompt pieces; a
:class:`PromptCache` keeps the pieces that recur across a run's essays, and
their escapes, so each is rendered and escaped once per run, the labels
of each answer text, so a recurring answer is parsed once, and the vote of
each pattern of round labels, so a recurring pattern is counted once. Final
labels come from a per-component majority vote over the rounds, ties broken
by train-set frequency: Premise > Claim > Major Claim.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .corpus import TIE_BREAK_RANK, Essay, Label
from .errors import AtcError, ConfigError
from .gateway import ChatRequest, Gateway
from .prompting import (MAX_OUTPUT_TOKENS, MAX_RETRIES, CountMismatch, PromptConfig, PromptMode,
                        UnknownLabel, build_prompt, parse_response)
from .selection import SelectionOutcome, SelectionStrategy, essay_pool, select_demonstrations

#: k and n values used by the published experiment grid (n=1 is the
#: no-ensembling row); anything else is accepted but reported as nonstandard.
STANDARD_K = (3, 5)
STANDARD_N_ROUNDS = (1, 3, 5)


class EmptyVotes(AtcError):
    """Majority vote over an empty sequence is undefined."""


class RoundFailed(AtcError):
    """One ensembling round ended unparseable; the essay gets no record."""


class _IclFields(NamedTuple):
    strategy: SelectionStrategy
    k: int
    n_rounds: int
    prompt: PromptConfig
    run_seed: int
    model_name: str = "gpt-4"
    temperature: float = 0.0


class IclConfig(_IclFields):
    """Full experiment configuration for one ensembling run.

    The neighborhood size is tied to ``k`` (always 2k). ``k = 0`` is the
    demonstration-free special case used to score fine-tuned models, and
    requires one-by-one mode with a single round.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> IclConfig:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, values) -> IclConfig:  # so that _replace checks the fields too
        return cls(*values)

    def is_standard_grid(self) -> bool:
        return self.k in STANDARD_K and self.n_rounds in STANDARD_N_ROUNDS


class PredictionRecord(NamedTuple):
    """Per-essay predictions with full provenance for one run."""

    essay_id: str
    rounds: tuple[tuple[Label, ...], ...]
    final: tuple[Label, ...]
    vote_counts: tuple[Mapping[str, int], ...]
    selections: tuple[SelectionOutcome, ...]
    responses: tuple[tuple[str, ...], ...] = ()

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


class PromptCache:
    """The prompt pieces that recur across one run's essays, each made once.

    ``bodies`` is the memo of demonstration bodies that
    :func:`prompting.build_prompt` fills, keyed by the essays themselves,
    ``escapes`` the memo of piece escapes that :meth:`gateway.ChatRequest.extend`
    fills, keyed by the piece's text, and ``parsed`` the memo of the labels
    :func:`prompting.parse_response` read from an answer, keyed by the
    answer's text and the label count asked; an answer that does not parse is
    not kept, so it is parsed, and refused, each time. ``votes`` is the memo
    of :meth:`vote`, keyed by one component's labels, one per round.
    ``cli.run_experiment`` makes one for each run, so no piece outlives the
    corpus and prompt texts of its run. The threads of a live run share it:
    two that miss the same piece at once each make it, and equal values are
    kept.
    """

    def __init__(self, bodies: dict[Essay, str] | None = None, escapes: dict[str, bytes] | None = None,
                 parsed: dict[tuple[str, int], tuple[Label, ...]] | None = None,
                 votes: dict[tuple[Label, ...], tuple[Label, dict[str, int]]] | None = None) -> None:
        self.bodies = {} if bodies is None else bodies
        self.escapes = {} if escapes is None else escapes
        self.parsed = {} if parsed is None else parsed
        self.votes = {} if votes is None else votes

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def vote(self, labels: tuple[Label, ...]) -> tuple[Label, dict[str, int]]:
        """The :func:`majority_vote` of ``labels`` and their counts by label value, in value order.

        The counts are the memo's own dict: copy them before handing them out.
        """
        found = self.votes.get(labels)
        if found is None:
            counts = Counter(labels)
            found = majority_vote(counts), dict(sorted((label.value, count) for label, count in counts.items()))
            self.votes[labels] = found
        return found


def derive_round_seed(run_seed: int, essay_id: str, round_index: int, purpose: str) -> int:
    """Stable 64-bit seed for one (essay, round, purpose) triple.

    Uses SHA-256 rather than Python's salted hash so runs reproduce across
    processes and platforms.
    """
    material = f"{run_seed}|{essay_id}|{round_index}|{purpose}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def majority_vote(votes: Sequence[Label] | Counter[Label]) -> Label:
    """Most frequent label; ties go to the higher train-set frequency.

    ``votes`` holds one label per round, or is already their :class:`Counter`.
    """
    counts = votes if isinstance(votes, Counter) else Counter(votes)
    if not counts:
        raise EmptyVotes("majority vote needs at least one vote")
    return max(counts, key=lambda label: (counts[label], TIE_BREAK_RANK[label]))


def run_ensemble(
    query: Essay,
    pool: Sequence[Essay],
    config: IclConfig,
    gateway: Gateway,
    info: str | None = None,
    cache: PromptCache | None = None,
) -> PredictionRecord:
    """Run ``n_rounds`` selection-and-classify rounds and aggregate by vote.

    Each instruction of a round is one chat call with the model and
    temperature of ``config`` and at most ``MAX_OUTPUT_TOKENS`` output tokens.
    A malformed answer is asked again, with the prompt's reminder appended, up
    to ``MAX_RETRIES`` times. Every request of a round, retries included, is
    extended from one request over the round's context, so its store key
    hashes only its own instruction, and a round of several instructions
    marks that request as shared (see :meth:`ChatRequest.extend`), so a
    store files the context once. Instructions and the reminder are escaped
    through ``cache`` too, and answers parsed through it. A round whose
    answer stays unparseable aborts the whole essay with
    :class:`RoundFailed`; partial votes are never aggregated.

    ``cache`` is the run's :class:`PromptCache`; without one, the pieces are
    kept for this essay alone. A ``pool`` that is no
    :class:`selection.EssayPool` is indexed for this essay alone.
    """
    seeds = [
        (
            derive_round_seed(config.run_seed, query.essay_id, round_index, "rank"),
            derive_round_seed(config.run_seed, query.essay_id, round_index, "pick"),
        )
        for round_index in range(1, config.n_rounds + 1)
    ]
    pool = essay_pool(pool)
    selections = select_demonstrations(query, pool, config.strategy, config.k, seeds, gateway)
    demo_sets = [[pool.by_id[essay_id] for essay_id in outcome.chosen_ids] for outcome in selections]
    if cache is None:
        cache = PromptCache()
    prompts = build_prompt(query, demo_sets, config.prompt, info, cache.bodies)
    head = ChatRequest(prompts[0].system_text, "", config.model_name, config.temperature, MAX_OUTPUT_TOKENS)
    rounds: list[tuple[Label, ...]] = []
    responses: list[tuple[str, ...]] = []
    for round_index, prompt in enumerate(prompts, start=1):
        context = head.extend(prompt.pieces, cache.escapes, shared=len(prompt.instructions) > 1)
        labels: list[Label] = []
        texts: list[str] = []
        for instruction in prompt.instructions:
            request = context.extend([instruction], cache.escapes)
            for _ in range(MAX_RETRIES + 1):
                text = gateway.chat(request).text
                texts.append(text)
                parsed = cache.parsed.get((text, prompt.answer_lines))
                if parsed is None:
                    try:
                        parsed = tuple(parse_response(text, prompt.answer_lines))
                    except (CountMismatch, UnknownLabel) as exc:
                        error = exc
                        request = context.extend([instruction, prompt.reminder], cache.escapes)
                        continue
                    cache.parsed[text, prompt.answer_lines] = parsed
                labels += parsed
                break
            else:
                raise RoundFailed(
                    f"{query.essay_id}: round {round_index} failed: no parseable answer after "
                    f"{MAX_RETRIES + 1} attempts, the last: {error}"
                ) from error
        rounds.append(tuple(labels))
        responses.append(tuple(texts))

    votes = [cache.vote(labels) for labels in zip(*rounds)]
    return PredictionRecord(
        essay_id=query.essay_id,
        rounds=tuple(rounds),
        final=tuple(label for label, _ in votes),
        vote_counts=tuple(counts.copy() for _, counts in votes),
        selections=selections,
        responses=tuple(responses),
    )
