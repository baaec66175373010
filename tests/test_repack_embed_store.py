"""The repack script: legacy embedding records rewritten packed, bit for bit, once."""

from __future__ import annotations

import importlib.util
import json
import struct
from pathlib import Path

import pytest

from atc_icl.gateway import HashEmbeddingBackend, ResponseStore, StoreEmbeddingBackend, embedding_digest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "repack_embed_store.py"
MODEL = "hash-embed-16"


@pytest.fixture()
def repack():
    spec = importlib.util.spec_from_file_location("repack_embed_store", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_legacy(store_dir: Path, text: str, values, digest: str | None = None) -> Path:
    """A record as stores wrote it before vectors were packed."""
    path = store_dir / "embed" / f"{digest or embedding_digest(MODEL, text)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"model_name": MODEL, "text": text, "vector": list(values)}
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def replayed(store_dir: Path, text: str) -> bytes:
    values = StoreEmbeddingBackend(ResponseStore(store_dir), MODEL).embed(text)[0].values
    return struct.pack(f"<{len(values)}d", *values)


def test_repack_rewrites_legacy_records_once_and_bit_identically(tmp_path, repack, capsys):
    store_dir = tmp_path / "store"
    titles = [f"Title {i}" for i in range(5)]
    hashed = HashEmbeddingBackend(dim=16)
    for title in titles[:3]:
        write_legacy(store_dir, title, hashed.embed(title)[0].values)
    write_legacy(store_dir, "Extremes", [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308] * 4)
    for title in titles[3:]:
        StoreEmbeddingBackend(ResponseStore(store_dir), MODEL, hashed).embed(title)
    texts = [*titles, "Extremes"]
    before = {text: replayed(store_dir, text) for text in texts}

    assert repack.main([str(store_dir)]) == 0
    assert capsys.readouterr().out == "rewritten: 4, already packed: 2, packs written: 1\n"
    records = [json.loads(p.read_text(encoding="utf-8")) for p in (store_dir / "embed").glob("*.json")]
    assert len(records) == 6 and all("vector_f64" in r and "vector" not in r for r in records)
    pack = ResponseStore(store_dir).embedding_pack_path(MODEL)
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    assert sorted(header["digests"]) == sorted(embedding_digest(MODEL, text) for text in texts)
    assert {text: replayed(store_dir, text) for text in texts} == before  # now served by the pack

    packed = {p.name: p.read_bytes() for p in (store_dir / "embed").iterdir()}
    assert repack.main([str(store_dir)]) == 0
    assert capsys.readouterr().out == "rewritten: 0, already packed: 6, packs written: 0\n"
    assert {p.name: p.read_bytes() for p in (store_dir / "embed").iterdir()} == packed


def test_repack_refuses_to_pack_vectors_of_two_lengths_under_one_model(tmp_path, repack, capsys):
    store_dir = tmp_path / "store"
    write_legacy(store_dir, "Title A", [0.5, 0.5])
    write_legacy(store_dir, "Title B", [0.5, 0.5, 0.5])
    assert repack.main([str(store_dir)]) == 1
    assert f"has 3 values, but the pack of model '{MODEL}' has rows of 2" in capsys.readouterr().err
    assert not ResponseStore(store_dir).embedding_pack_path(MODEL).exists()


def test_repack_refuses_a_record_filed_under_another_key(tmp_path, repack, capsys):
    store_dir = tmp_path / "store"
    misfiled = write_legacy(store_dir, "Title A", [0.5, 0.5], digest=embedding_digest(MODEL, "Title B"))
    original = misfiled.read_bytes()
    assert repack.main([str(store_dir)]) == 1
    assert f"{misfiled} is not filed under the digest" in capsys.readouterr().err
    assert misfiled.read_bytes() == original
    assert [p.name for p in (store_dir / "embed").iterdir()] == [misfiled.name]


def test_repack_refuses_a_directory_without_embeddings(tmp_path, repack, capsys):
    assert repack.main([str(tmp_path)]) == 1
    assert "has no embed/ directory" in capsys.readouterr().err
