"""Live runs against a local OpenAI-compatible server: the worker pool asks several
essays at once, writes records in essay order, bounds its connections, fetches
each title once, and leaves a resumable prefix when an essay fails."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

from atc_icl import cli
from atc_icl.gateway import (BackendTag, EmbeddingVector, GatewayConfigError, ResponseStore, StoreEmbeddingBackend,
                             embedding_digest)
from atc_icl.prompting import QUERY_HEADER, TITLE_LINE

from conftest import OpenAIServer, invoke
from test_cli import SIGTERM_ON_SECOND_ESSAY, write_config

OUTPUTS = ("records.jsonl", "report.json", "report.txt")


def live_config(tmp_path: Path, corpus_dir: Path, server: OpenAIServer, name: str, workers: int, **backend) -> Path:
    """A title-kNN config whose chat and embeddings both go to ``server``."""
    backend = {"chat": "live", "embedding": "live", "base_url": server.url, "api_key_env": OpenAIServer.KEY_ENV,
               "workers": workers, **backend}
    return write_config(tmp_path / f"{name}.yaml", corpus_dir, tmp_path / name, icl={"strategy": "knn_title"},
                        backend=backend)


def run(config: Path):
    return invoke(["run", "--config", str(config)])


def outputs(out_dir: Path) -> tuple[bytes, ...]:
    return tuple((out_dir / name).read_bytes() for name in OUTPUTS)


def manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def test_live_outputs_are_the_same_for_any_worker_count_and_match_a_mock_run(small_dir, openai_server, tmp_path):
    seen = {}
    for workers in (1, 2, 4, 16):
        openai_server.reset()
        config = live_config(tmp_path, small_dir, openai_server, f"w{workers}", workers)
        assert run(config).exit_code == 0
        assert openai_server.peak_connections <= workers
        out_dir = tmp_path / f"w{workers}"
        seen[workers] = outputs(out_dir), manifest(out_dir)["chat_calls"]
    assert len(set(seen.values())) == 1
    records = [json.loads(line) for line in seen[1][0][0].splitlines()]
    responses = [text for record in records for round_ in record["responses"] for text in round_]
    assert OpenAIServer.MALFORMED in responses  # the retries ran
    assert seen[1][1] == len(responses)

    # Without malformed answers, a live run writes what a gold-echo mock run writes.
    openai_server.malformed_share = 0.0
    assert run(live_config(tmp_path, small_dir, openai_server, "clean", 4)).exit_code == 0
    mock = write_config(tmp_path / "mock.yaml", small_dir, tmp_path / "mock", icl={"strategy": "knn_title"},
                        backend={"embedding": "hash", "embedding_dim": 8})
    assert run(mock).exit_code == 0
    assert outputs(tmp_path / "clean") == outputs(tmp_path / "mock")


def test_a_live_title_run_through_the_store_fetches_each_distinct_request_once(
    small_dir, small_corpus, openai_server, tmp_path
):
    config = live_config(tmp_path, small_dir, openai_server, "cached", 4, chat="cache", embedding="cache",
                         store_dir=str(tmp_path / "store"))
    assert run(config).exit_code == 0
    titles = openai_server.texts("embeddings")
    assert set(titles) == {essay.title for essay in small_corpus.essays}
    assert set(titles.values()) == {1}
    assert set(openai_server.texts("completions").values()) == {1}
    assert openai_server.peak_connections <= 4


def test_concurrent_misses_of_a_text_fetch_it_once(tmp_path):
    class SlowUpstream:
        model_name = "m"

        def __init__(self):
            self.calls = Counter()

        def embed(self, text):
            self.calls[text] += 1
            threading.Event().wait(0.01)  # long enough for every thread to miss
            return EmbeddingVector((1.0, 0.0), embedding_digest("m", text)), BackendTag.LIVE

    upstream = SlowUpstream()
    backend = StoreEmbeddingBackend(ResponseStore(tmp_path), "m", upstream)
    texts = [f"Title {i}" for i in range(4)]
    tags = Counter()
    threads = [threading.Thread(target=lambda text=text: tags.update([backend.embed(text)[1]]))
               for text in texts * 4]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert upstream.calls == Counter(texts)
    assert tags == Counter({BackendTag.LIVE: 4, BackendTag.CACHE: 12})


def query_of(essay_id: str, corpus) -> Callable[[str], bool]:
    """Whether a user text asks about ``essay_id``: its query section names the essay's title."""
    marker = f"{QUERY_HEADER}\n{TITLE_LINE.format(title=corpus.by_id()[essay_id].title)}\n"
    return lambda user_text: marker in user_text


def test_a_live_run_that_fails_on_a_middle_essay_leaves_a_prefix_and_resumes(
    small_dir, small_corpus, openai_server, tmp_path
):
    store = {"chat": "cache", "embedding": "cache"}
    full = live_config(tmp_path, small_dir, openai_server, "full", 4, store_dir=str(tmp_path / "full-store"), **store)
    assert run(full).exit_code == 0
    full_records = (tmp_path / "full" / "records.jsonl").read_bytes().splitlines(keepends=True)

    test_ids = sorted(essay.essay_id for essay in small_corpus.test_essays())
    openai_server.fail_when = query_of(test_ids[1], small_corpus)
    stopped = live_config(tmp_path, small_dir, openai_server, "stopped", 4, store_dir=str(tmp_path / "store"),
                          **store)
    result = run(stopped)
    assert isinstance(result.exception, GatewayConfigError)
    out_dir = tmp_path / "stopped"
    assert (out_dir / "records.jsonl").read_bytes() == full_records[0]
    first = json.loads(full_records[0])
    counted = manifest(out_dir)
    assert counted["chat_calls"] == sum(len(round_) for round_ in first["responses"])
    assert counted["embed_calls"] == len(small_corpus.train_essays()) + 1
    assert 0 < counted["tokens"]["prompt"] < manifest(tmp_path / "full")["tokens"]["prompt"]

    # Resumed with another worker count, the run ends as the uninterrupted one did.
    openai_server.fail_when = None
    resumed = live_config(tmp_path, small_dir, openai_server, "stopped", 1, store_dir=str(tmp_path / "store"),
                          **store)
    assert run(resumed).exit_code == 0
    assert outputs(out_dir) == outputs(tmp_path / "full")
    for key in ("chat_calls", "embed_calls", "tokens"):
        assert manifest(out_dir)[key] == manifest(tmp_path / "full")[key]


def test_once_an_essay_fails_no_queued_essay_starts(small_dir, small_corpus, openai_server, tmp_path, monkeypatch):
    test_ids = sorted(essay.essay_id for essay in small_corpus.test_essays())
    real_run_ensemble, started = cli.run_ensemble, []

    def run_ensemble(query, *args, **kwargs):
        started.append(query.essay_id)
        if query.essay_id == test_ids[0]:
            raise RuntimeError("chat backend went away")
        return real_run_ensemble(query, *args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
    result = run(live_config(tmp_path, small_dir, openai_server, "out", 2))
    assert isinstance(result.exception, RuntimeError)
    assert set(started) <= set(test_ids[:2])  # the failed essay, and the one asked with it
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == b""
    assert manifest(tmp_path / "out")["chat_calls"] == 0


@pytest.mark.parametrize("workers", [2, 4])
def test_the_first_failure_in_essay_order_is_raised(small_dir, small_corpus, openai_server, tmp_path, monkeypatch,
                                                     workers):
    test_ids = sorted(essay.essay_id for essay in small_corpus.test_essays())
    real_run_ensemble, second_failed = cli.run_ensemble, threading.Event()

    def run_ensemble(query, *args, **kwargs):
        if query.essay_id == test_ids[1]:
            second_failed.set()
            raise RuntimeError("second essay")
        if query.essay_id == test_ids[0]:
            second_failed.wait(5)  # the later essay fails first
            raise ValueError("first essay")
        return real_run_ensemble(query, *args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
    result = run(live_config(tmp_path, small_dir, openai_server, "out", workers))
    assert isinstance(result.exception, ValueError)
    # The other failure of the session is reported too, once.
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning: ")]
    assert warnings == [f"warning: essay {test_ids[1]} failed too: RuntimeError: second essay"]


def test_sigterm_during_a_live_run_leaves_a_resumable_prefix(small_dir, openai_server, tmp_path):
    def config(name, workers):
        return live_config(tmp_path, small_dir, openai_server, name, workers, chat="cache", embedding="cache",
                           store_dir=str(tmp_path / f"{name}-store"))

    assert run(config("full", 2)).exit_code == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    stopped = subprocess.run([sys.executable, "-c", SIGTERM_ON_SECOND_ESSAY, str(config("stopped", 2))],
                             env=env, capture_output=True, text=True, timeout=120)
    assert stopped.returncode == 143, stopped.stderr
    written = (tmp_path / "stopped" / "records.jsonl").read_bytes()
    assert (tmp_path / "full" / "records.jsonl").read_bytes().startswith(written)
    responses = [text for line in written.splitlines() for round_ in json.loads(line)["responses"] for text in round_]
    assert manifest(tmp_path / "stopped")["chat_calls"] == len(responses)

    assert run(config("stopped", 4)).exit_code == 0
    assert outputs(tmp_path / "stopped") == outputs(tmp_path / "full")
    for key in ("chat_calls", "embed_calls", "tokens"):
        assert manifest(tmp_path / "stopped")[key] == manifest(tmp_path / "full")[key]
