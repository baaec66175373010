#!/usr/bin/env python3
"""Rewrite the legacy embedding records of a response store in the packed form,
and write each embedding model's pack from the store's records.

A legacy record holds its vector as a JSON list of decimal floats
(``"vector": [...]``); a packed one holds it as little-endian float64 in hex
(``"vector_f64"``), which replays with no float parsing. Values carry over bit
for bit, through ``ResponseStore.put_embedding``. Each model's pack, the one
file a title-kNN replay reads its pool from, is then rewritten to hold every
record of that model, through ``ResponseStore.put_embedding_pack``. A record
filed under a name that is not the digest of its own model name and text is
refused, so no vector ever moves to another key. A second run rewrites nothing.

Usage:
    python3 scripts/repack_embed_store.py STORE_DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from atc_icl.errors import AtcError
from atc_icl.gateway import ResponseStore, embedding_digest, embedding_values


def read_record(path: Path) -> dict:
    """A record file as it is on disk; a pack may serve the same digest through the store."""
    try:
        return json.loads(path.read_bytes())
    except ValueError as exc:
        raise AtcError(f"corrupt store record {path}: {exc}") from exc


def repack(store_dir: Path) -> tuple[int, int, int]:
    """Pack every legacy record under ``store_dir/embed`` and write each model's pack;
    return (records rewritten, records already packed, packs written)."""
    embed_dir = store_dir / "embed"
    if not embed_dir.is_dir():
        raise AtcError(f"{store_dir} has no embed/ directory")
    store = ResponseStore(store_dir)
    rewritten = packed = 0
    digests_by_model: dict[str, list[str]] = {}
    for path in sorted(embed_dir.glob("*.json")):
        record = read_record(path)
        values = embedding_values(record, path)
        try:
            model_name, text = record["model_name"], record["text"]
        except KeyError as exc:
            raise AtcError(f"malformed embedding record {path}: no {exc} field") from None
        key = embedding_digest(model_name, text)
        if key != path.stem:
            raise AtcError(f"{path} is not filed under the digest of its model name and text ({key})")
        digests_by_model.setdefault(model_name, []).append(key)
        if "vector_f64" in record:
            packed += 1
            continue
        store.put_embedding(key, model_name, text, values)
        rewritten += 1
    packs = sum(store.put_embedding_pack(model, digests) for model, digests in sorted(digests_by_model.items()))
    return rewritten, packed, packs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("store_dir", type=Path, metavar="STORE_DIR")
    args = parser.parse_args(argv)
    try:
        rewritten, packed, packs = repack(args.store_dir)
    except AtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rewritten: {rewritten}, already packed: {packed}, packs written: {packs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
