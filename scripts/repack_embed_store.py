#!/usr/bin/env python3
"""Rewrite the legacy embedding records of a response store in the packed form.

A legacy record holds its vector as a JSON list of decimal floats
(``"vector": [...]``); a packed one holds it as little-endian float64 in hex
(``"vector_f64"``), which replays with no float parsing. Values carry over bit
for bit, through ``ResponseStore.put_embedding``. A record filed under a name
that is not the digest of its own model name and text is refused, so no
vector ever moves to another key. A second run rewrites nothing.

Usage:
    python3 scripts/repack_embed_store.py STORE_DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from atc_icl.errors import AtcError
from atc_icl.gateway import ResponseStore, embedding_digest, embedding_values


def repack(store_dir: Path) -> tuple[int, int]:
    """Pack every legacy record under ``store_dir/embed``; return (rewritten, already packed)."""
    embed_dir = store_dir / "embed"
    if not embed_dir.is_dir():
        raise AtcError(f"{store_dir} has no embed/ directory")
    store = ResponseStore(store_dir)
    rewritten = packed = 0
    for path in sorted(embed_dir.glob("*.json")):
        record = store.get_embedding(path.stem)
        values = embedding_values(record, path)
        try:
            model_name, text = record["model_name"], record["text"]
        except KeyError as exc:
            raise AtcError(f"malformed embedding record {path}: no {exc} field") from None
        key = embedding_digest(model_name, text)
        if key != path.stem:
            raise AtcError(f"{path} is not filed under the digest of its model name and text ({key})")
        if "vector_f64" in record:
            packed += 1
            continue
        store.put_embedding(key, model_name, text, values)
        rewritten += 1
    return rewritten, packed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("store_dir", type=Path, metavar="STORE_DIR")
    args = parser.parse_args(argv)
    try:
        rewritten, packed = repack(args.store_dir)
    except AtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rewritten: {rewritten}, already packed: {packed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
