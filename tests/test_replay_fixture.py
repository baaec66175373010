"""The committed replay fixture: a store recorded by an earlier commit replays byte for byte.

``data/replay_fixture/store`` was recorded once, from the corpus that
``generate_corpus(dir, small_shape(6, 5), seed=8)`` writes (one test essay,
``essay005``, of 8 components), with the two runs of ``RUNS``:

* chat through a ``cache`` over a gold-echo mock whose first answer of each
  run was malformed (``Claim, probably.``), so each run asked once more with
  the format reminder; the records carry nonzero token counts;
* title embeddings (8-dim hash vectors) filed under
  ``text-embedding-ada-002`` in all three stored forms: ``essay001`` and
  ``essay002`` as rows of the model's pack only, ``essay003`` and
  ``essay004`` as ``vector_f64`` records, ``essay005`` and ``essay006`` as
  records with a legacy JSON ``vector`` list.

``<run>.records.jsonl`` is what that recording wrote. The committed pack has
no distance block, so replaying the store as it is ranks every pool title from
its vector; a copy that ``atc-icl embed`` re-packs with a block must replay
the same bytes. A change to a chat or embedding key, to any request text, or
to the record format fails these tests. Do not re-record the fixture to make them pass: a store recorded
against a paid model must keep replaying.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from atc_icl.gateway import ResponseStore, _EmbeddingPack
from atc_icl.synth import SPLIT_FILE_NAME, generate_corpus, small_shape
from conftest import invoke

FIXTURE = Path(__file__).parent / "data" / "replay_fixture"
RUNS = {
    "all_at_once": {"strategy": "knn_title", "k": 2, "n": 3, "info": True, "essay": True, "fts": False,
                    "mode": "all_at_once", "run_seed": 3},
    "one_by_one": {"strategy": "knn_title", "k": 1, "n": 1, "info": True, "essay": False, "fts": True,
                   "mode": "one_by_one", "run_seed": 3},
}
#: Chat records each run reads: all-at-once 3 rounds + 1 retry, one-by-one 8 components + 1 retry.
CHAT_CALLS = {"all_at_once": 4, "one_by_one": 9}
#: Prompt and completion tokens summed over the chat records each run reads.
TOKENS = {"all_at_once": {"prompt": 7_994, "completion": 67}, "one_by_one": {"prompt": 12_974, "completion": 13}}


@pytest.fixture(scope="module")
def fixture_corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fixture-corpus")
    generate_corpus(out, small_shape(6, 5), seed=8)
    return out


def replay_config(name: str, corpus: Path, store: Path, out_dir: Path) -> Path:
    """A replay config of run ``name`` over ``corpus`` and ``store``, next to ``out_dir``."""
    config = out_dir.with_suffix(".yaml")
    config.write_text(json.dumps({
        "corpus_dir": str(corpus),
        "split_file": str(corpus / SPLIT_FILE_NAME),
        "out_dir": str(out_dir),
        "icl": RUNS[name],
        "backend": {"chat": "replay", "embedding": "replay", "store_dir": str(store)},
    }), encoding="utf-8")
    return config


def replay_run(name: str, corpus: Path, store: Path, out_dir: Path) -> dict:
    """Replay run ``name``, check its records and counts against the recording, and return its manifest."""
    config = replay_config(name, corpus, store, out_dir)
    result = invoke(["run", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert (out_dir / "records.jsonl").read_bytes() == (FIXTURE / f"{name}.records.jsonl").read_bytes()
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend_tags_used"] == ["replay"]
    assert manifest["chat_calls"] == CHAT_CALLS[name]
    assert manifest["tokens"] == TOKENS[name]
    assert manifest["embed_calls"] == 6  # the query title and the five pool titles
    return manifest


@pytest.fixture
def parsed_kinds(monkeypatch) -> list[str]:
    """The kind of every store record that is parsed whole, in order."""
    parsed, real_parse = [], ResponseStore._parse

    def parse(self, kind, digest, data):
        parsed.append(kind)
        return real_parse(self, kind, digest, data)

    monkeypatch.setattr(ResponseStore, "_parse", parse)
    return parsed


@pytest.mark.parametrize("name", sorted(RUNS))
def test_committed_store_replays_byte_for_byte(name, fixture_corpus, tmp_path, parsed_kinds):
    store = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", store)
    replay_run(name, fixture_corpus, store, tmp_path / "out")
    # Each chat record is served from its request bytes and its parsed answer
    # alone; only the embedding records are parsed whole.
    assert set(parsed_kinds) == {"embed"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_committed_store_repacked_with_a_distance_block_replays_byte_for_byte(name, fixture_corpus, tmp_path,
                                                                               parsed_kinds):
    """``atc-icl embed`` over a copy of the store packs every title with a distance block; the replay is unchanged."""
    store = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", store)
    config = replay_config(name, fixture_corpus, store, tmp_path / "embed-out")
    result = invoke(["embed", "--config", str(config)], catch_exceptions=False)
    assert "embedded 6 titles (0 live fetches, 0 cache hits, 6 replay/mock)" in result.output
    pack = ResponseStore(store).embedding_pack_path("text-embedding-ada-002")
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    assert header["distances"] is True and len(header["digests"]) == 6
    parsed_kinds.clear()
    rows = []
    row = _EmbeddingPack.row
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_EmbeddingPack, "row", lambda self, index: rows.append(index) or row(self, index))
        replay_run(name, fixture_corpus, store, tmp_path / "out")
    assert parsed_kinds == []  # every title from the pack
    assert 1 < len(rows) < 6  # the query's row and the candidates scored exactly; the rest from the block


def test_committed_store_holds_every_stored_form():
    chat = [json.loads(path.read_text(encoding="utf-8")) for path in (FIXTURE / "store" / "chat").glob("*.json")]
    assert len(chat) == sum(CHAT_CALLS.values())
    usage = [record["response"]["usage"] for record in chat]
    assert sum(u["prompt_tokens"] for u in usage) == sum(t["prompt"] for t in TOKENS.values())
    assert sum(u["completion_tokens"] for u in usage) == sum(t["completion"] for t in TOKENS.values())
    retries = [record["request"]["user_text"] for record in chat if "\n\nReminder: " in record["request"]["user_text"]]
    assert len(retries) == 2
    assert any("Which class is argument component 1 of 8?" in text for text in retries)
    assert any("Classify all 8 argument components" in text for text in retries)
    embed = [json.loads(path.read_text(encoding="utf-8")) for path in (FIXTURE / "store" / "embed").glob("*.json")]
    assert sorted("vector_f64" in record for record in embed) == [False, False, True, True]
    assert all("vector" in record for record in embed if "vector_f64" not in record)
    assert len(list((FIXTURE / "store" / "embed").glob("pack-*.f64"))) == 1
