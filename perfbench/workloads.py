"""Benchmark workloads: their configs, and the untimed set-up each run needs.

Set-up happens in the benchmark's own process, before and between the timed
``atc-icl run`` invocations:

* the corpus is generated with ``synth.generate_corpus`` at ``PE_SHAPE``;
* replay stores are recorded with the commit's own ``cache`` backends, so a
  later change to the cache key still replays;
* a reference pass calls ``ensemble.run_ensemble`` in-process on each slice of
  the test split and gives the records, request-text digest and parse retries
  that the timed invocation must reproduce.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml
from atc_icl import cli, selection
from atc_icl.config import load_run_config
from atc_icl.corpus import Split, load_corpus
from atc_icl.ensemble import run_ensemble
from atc_icl.gateway import (CacheChatBackend, Gateway, MockChatBackend, ReplayEmbeddingBackend,
                             ResponseStore)
from atc_icl.mocks import gold_echo_responder
from atc_icl.prompting import FORMAT_REMINDER, build_info_block
from atc_icl.synth import PE_SHAPE, SPLIT_FILE_NAME, generate_corpus

from stub import MALFORMED_ANSWER, request_text_digest, stub_behaviour, text_set_digest

# The workload seed drives both generators; seed 0 reproduces the repository
# defaults (generate_corpus seed 20240817, the shipped configs' run_seed 17).
CORPUS_SEED_BASE = 20240817
RUN_SEED_BASE = 17
EMBED_MODEL = "hash-embed-1536"
EMBED_DIM = 1536
# The live workload reads its API key from this variable, never a real key.
STUB_KEY_ENV = "PERFBENCH_STUB_KEY"

# Boundaries every traced invocation of every workload crosses.
COMMON_CROSSINGS = (
    "corpus.load_corpus", "selection.rank_neighbors", "gateway.chat",
    "gateway.store.get_chat", "prompting.build_info_block", "prompting.build_prompt",
    "prompting.parse_response", "ensemble.run_ensemble", "ensemble.majority_vote",
    "metrics.aggregate_runs", "cli.run",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    icl: dict
    live: bool  # chat through cache -> live stub, else chat replay
    embeddings: bool  # replay title embeddings recorded at EMBED_DIM
    slice_size: int  # test essays per invocation
    crossings: tuple[str, ...]  # boundaries a traced invocation must cross


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay-knn-ada",
            why=(
                "Published row info+essay+5NN+5Ens replayed with 1536-dim title embeddings; "
                "selection, embedding lookups and store reads dominate. Page cache warm by "
                "construction, never dropped."
            ),
            icl={"strategy": "knn_title", "k": 5, "n": 5, "info": True, "essay": True,
                 "fts": False, "mode": "all_at_once", "model": "gpt-4"},
            live=False,
            embeddings=True,
            slice_size=1,
            crossings=("gateway.embed", "gateway.cosine_similarity", "gateway.store.get_embedding"),
        ),
        Workload(
            name="replay-1by1-fts",
            why=(
                "info+essay+fts+5NN^len+3Ens one-by-one, chat replay, no embeddings: loads "
                "prompt building, features and chat-store reads, bypasses selection and "
                "embedding changes."
            ),
            icl={"strategy": "knn_len", "k": 5, "n": 3, "info": True, "essay": True,
                 "fts": True, "mode": "one_by_one", "model": "gpt-4"},
            live=False,
            embeddings=False,
            slice_size=80,
            crossings=("features.extract_structural",),
        ),
        Workload(
            name="record-live-len",
            why=(
                "info+essay+5NN^len+3Ens through cache->live against a local stub with seeded "
                "20-30 ms latency and malformed first answers: a user's first live run, "
                "store writes."
            ),
            icl={"strategy": "knn_len", "k": 5, "n": 3, "info": True, "essay": True,
                 "fts": False, "mode": "all_at_once", "model": "gpt-4"},
            live=True,
            embeddings=False,
            slice_size=20,
            crossings=("gateway.store.put_chat",),
        ),
    )
}


@dataclass
class Reference:
    """What one invocation over a slice must produce."""

    records: bytes  # records.jsonl as the CLI writes it
    request_digest: str  # over the distinct chat request texts sent
    distinct_requests: int  # what reaches the upstream when the store starts empty
    parse_retries: int  # malformed answers the program received, store hits included
    dry_run_chat_calls: int


def serialize_records(records) -> bytes:
    """records.jsonl exactly as ``atc-icl run`` writes it (canonical JSON lines)."""
    return b"".join(
        (json.dumps(r.to_dict(), sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
        for r in records
    )


class _Capture:
    """Chat backend wrapper that digests every request text passed through it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.digests: list[str] = []

    def complete(self, request):
        self.digests.append(request_text_digest(request.system_text, request.user_text))
        return self.inner.complete(request)


class _MemoEmbeddings:
    """Serves each title's vector from memory after its first store read."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self._memo: dict = {}

    def embed(self, text):
        if text not in self._memo:
            self._memo[text] = self.inner.embed(text)
        return self._memo[text]


@contextlib.contextmanager
def _ranking_memo():
    """Rank each query once: knn_title and knn_len ignore the per-round rank seed.

    Only the reference pass uses this; the timed invocations run unmodified.
    """
    original = selection.rank_neighbors
    memo: dict = {}

    def rank(query, pool, strategy, n_neighbors, rng_seed, gateway=None):
        if strategy is selection.SelectionStrategy.KRN:
            return original(query, pool, strategy, n_neighbors, rng_seed, gateway)
        key = (query.essay_id, strategy, n_neighbors)
        if key not in memo:
            memo[key] = original(query, pool, strategy, n_neighbors, rng_seed, gateway)
        return list(memo[key])

    selection.rank_neighbors = rank
    try:
        yield
    finally:
        selection.rank_neighbors = original


def _quiet_cli(argv: list[str]) -> str:
    """Run an ``atc-icl`` subcommand in-process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv, standalone_mode=False)
    return out.getvalue()


class RunSetup:
    """Everything one benchmark run of one workload prepares in ``work_dir``."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.corpus_dir = work_dir / "corpus"
        generate_corpus(self.corpus_dir, PE_SHAPE, seed=CORPUS_SEED_BASE + seed)
        self.split_file = self.corpus_dir / SPLIT_FILE_NAME
        self.corpus = load_corpus(self.corpus_dir, self.split_file)
        test_ids = sorted(e.essay_id for e in self.corpus.test_essays())
        self.test_count = len(test_ids)
        size = workload.slice_size
        self.slices = [test_ids[i : i + size] for i in range(0, len(test_ids), size)]
        self.store_dir = work_dir / "store"
        self.base_url: str | None = None
        self._references: dict[int, Reference] = {}
        self._reference_embedder = None
        self._invocations = 0
        if workload.embeddings:
            self._record_embeddings()

    def icl_section(self) -> dict:
        return {**self.workload.icl, "run_seed": RUN_SEED_BASE + self.seed, "temperature": 0.0}

    def _write_config(self, path: Path, corpus_dir: Path, out_dir: Path, backend: dict) -> Path:
        config = {
            "corpus_dir": str(corpus_dir),
            "split_file": str(corpus_dir / SPLIT_FILE_NAME),
            "out_dir": str(out_dir),
            "icl": self.icl_section(),
            "backend": backend,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
        return path

    def _record_embeddings(self) -> None:
        """``atc-icl embed`` through cache -> hash: one store record per title."""
        config = self._write_config(
            self.work_dir / "embed.yaml", self.corpus_dir, self.work_dir / "embed-out",
            {"chat": "replay", "embedding": "cache", "embedding_upstream": "hash",
             "embedding_dim": EMBED_DIM, "store_dir": str(self.store_dir)},
        )
        _quiet_cli(["embed", "--config", str(config)])

    def backend_section(self, store_dir: Path) -> dict:
        if self.workload.live:
            # The shipped wiring: chat and embeddings through cache, live upstream.
            return {"chat": "cache", "cache_upstream": "live", "embedding": "cache",
                    "embedding_upstream": "live", "embedding_model": "text-embedding-ada-002",
                    "store_dir": str(store_dir), "base_url": self.base_url,
                    "api_key_env": STUB_KEY_ENV}
        return {"chat": "replay", "embedding": "replay", "embedding_model": EMBED_MODEL,
                "store_dir": str(store_dir)}

    def slice_corpus(self, index: int) -> Path:
        """The generated corpus restricted to one slice of the test split.

        Every train essay is kept, so each query still ranks the full 322-essay
        pool; only the test essays outside the slice are left out.
        """
        if len(self.slices) == 1:
            return self.corpus_dir
        target = self.work_dir / "slices" / str(index)
        if target.exists():
            return target
        target.mkdir(parents=True)
        keep = [e.essay_id for e in self.corpus.essays
                if self.corpus.split[e.essay_id] is Split.TRAIN or e.essay_id in self.slices[index]]
        for essay_id in keep:
            for suffix in (".txt", ".ann"):
                shutil.copyfile(self.corpus_dir / f"{essay_id}{suffix}", target / f"{essay_id}{suffix}")
        lines = ['"ID";"SET"'] + [f'"{i}";"{self.corpus.split[i].value}"' for i in keep]
        (target / SPLIT_FILE_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return target

    def reference(self, index: int) -> Reference:
        if index not in self._references:
            self._references[index] = self._make_reference(index)
        return self._references[index]

    def _make_reference(self, index: int) -> Reference:
        gold = gold_echo_responder(self.corpus)
        retries = 0
        if self.workload.live:
            marker = FORMAT_REMINDER.split("{")[0]

            def respond(request):
                nonlocal retries
                malformed, _ = stub_behaviour(self.seed, request.system_text, request.user_text, marker)
                retries += malformed
                return MALFORMED_ANSWER if malformed else gold(request)

            chat = _Capture(MockChatBackend(responder=respond))
            embedder = None
        else:
            store = ResponseStore(self.store_dir)
            chat = _Capture(CacheChatBackend(store, MockChatBackend(responder=gold)))
            if self.workload.embeddings and self._reference_embedder is None:
                self._reference_embedder = _MemoEmbeddings(ReplayEmbeddingBackend(store, EMBED_MODEL))
            embedder = self._reference_embedder

        corpus_dir = self.slice_corpus(index)
        config = load_run_config(self._write_config(
            self.work_dir / "reference.yaml", corpus_dir, self.work_dir / "reference-out",
            self.backend_section(self.store_dir)))
        gateway = Gateway(chat_backend=chat, embedding_backend=embedder)
        by_id = self.corpus.by_id()
        pool = self.corpus.train_essays()
        info = build_info_block(self.corpus)
        with _ranking_memo():
            records = [run_ensemble(by_id[essay_id], pool, config.icl, gateway, info=info)
                       for essay_id in self.slices[index]]
        dry_run = _quiet_cli(["run", "--config", str(self.work_dir / "reference.yaml"), "--dry-run"])
        match = re.search(r"chat requests:\s+~(\d+)", dry_run)
        if match is None:
            raise RuntimeError(f"cannot read the chat request estimate from --dry-run:\n{dry_run}")
        return Reference(
            records=serialize_records(records),
            request_digest=text_set_digest(chat.digests),
            distinct_requests=len(set(chat.digests)),
            parse_retries=retries,
            dry_run_chat_calls=int(match.group(1)),
        )

    def invocation_config(self, index: int) -> tuple[Path, Path]:
        """A fresh config and out_dir (and, live, a fresh empty store) per invocation."""
        self._invocations += 1
        inv_dir = self.work_dir / f"inv-{self._invocations:03d}"
        store_dir = inv_dir / "store" if self.workload.live else self.store_dir
        out_dir = inv_dir / "out"
        config = self._write_config(inv_dir / "run.yaml", self.slice_corpus(index), out_dir,
                                    self.backend_section(store_dir))
        return config, out_dir
