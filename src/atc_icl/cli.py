"""Command-line interface: stats, embed, run, eval, export.

Every experiment run writes a reproducibility manifest next to its records
and report, and already-recorded essays are skipped on rerun, so an
interrupted run resumes where it stopped. Records and reports are serialized
canonically (sorted keys, no timestamps), which makes replay-backed reruns
byte-identical.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import click

from . import __version__
from .config import RunConfig, config_digest, load_run_config, run_label
from .corpus import Corpus, Essay, LABELS, Split, compute_stats, load_corpus
from .ensemble import STANDARD_K, STANDARD_N_ROUNDS, PredictionRecord, run_ensemble
from .errors import AtcError
from .finetune import export as export_finetune
from .gateway import (
    BackendTag,
    Gateway,
    HashEmbeddingBackend,
    LiveChatBackend,
    LiveEmbeddingBackend,
    MockChatBackend,
    ResponseStore,
    StoreChatBackend,
    StoreEmbeddingBackend,
    write_atomic,
)
from .metrics import EvaluationReport, aggregate_runs, render_report
from .mocks import constant_label_responder, gold_echo_responder
from .prompting import PromptMode, build_info_block
from .selection import SelectionStrategy

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
REPORT_JSON_NAME = "report.json"
REPORT_TEXT_NAME = "report.txt"


def make_gateway(config: RunConfig, corpus: Corpus) -> Gateway:
    """Wire chat and embedding backends according to the run config.

    ``cache`` puts the store in front of the configured upstream; ``replay``
    is the store with no upstream. Both file embeddings under the model of
    ``embedding_upstream``, so a ``replay`` reads what its ``cache`` twin recorded.
    """
    backend = config.backend
    store = ResponseStore(backend.store_dir) if backend.store_dir else None

    chat_kind = backend.cache_upstream if backend.chat == "cache" else backend.chat
    chat = None
    if chat_kind == "mock":
        if backend.mock_mode == "gold_echo":
            chat = MockChatBackend(responder=gold_echo_responder(corpus))
        else:
            chat = MockChatBackend(responder=constant_label_responder())
    elif chat_kind == "live":
        chat = LiveChatBackend(backend.base_url, backend.api_key_env)
    if backend.chat in ("cache", "replay"):
        chat = StoreChatBackend(store, chat)

    embed_kind = backend.embedding_upstream if backend.embedding == "cache" else backend.embedding
    embedder = None
    if embed_kind == "hash":
        embedder = HashEmbeddingBackend(dim=backend.embedding_dim)
    elif embed_kind == "live":
        embedder = LiveEmbeddingBackend(backend.base_url, backend.embedding_model, backend.api_key_env)
    if backend.embedding in ("cache", "replay"):
        hashed = backend.embedding_upstream == "hash"
        model_name = f"hash-embed-{backend.embedding_dim}" if hashed else backend.embedding_model
        embedder = StoreEmbeddingBackend(store, model_name, embedder)

    return Gateway(chat_backend=chat, embedding_backend=embedder)


def _write_json(path: Path, data: dict) -> None:
    write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _print_stats(stats, scope: str) -> None:
    click.echo(f"Corpus statistics ({scope}):")
    click.echo(f"  Essays      {stats.essay_count:>8}")
    click.echo(f"  Paragraphs  {stats.paragraph_count:>8}")
    click.echo(f"  Sentences   {stats.sentence_count:>8}")
    click.echo(f"  Tokens      {stats.token_count:>8}")
    click.echo("Component statistics:")
    for label in LABELS:
        click.echo(f"  {label.display_name + 's':<14}{stats.label_counts[label]:>6}")
    click.echo(f"  {'Total':<14}{stats.component_count:>6}")


@click.group()
@click.version_option(version=__version__, prog_name="atc-icl")
def main() -> None:
    """Argument type classification experiments on persuasive essays."""


@main.command()
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("split_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--scope", type=click.Choice(["all", "train", "test"]), default="all")
@click.option("--json-out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def stats(corpus_dir: Path, split_file: Path, scope: str, json_out: Path | None) -> None:
    """Print corpus statistics for the chosen scope."""
    corpus = load_corpus(corpus_dir, split_file)
    result = compute_stats(corpus, None if scope == "all" else Split(scope.upper()))
    _print_stats(result, scope)
    if json_out is not None:
        _write_json(json_out, result.to_dict())
        click.echo(f"wrote {json_out}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
def embed(config_path: Path) -> None:
    """Warm the title-embedding cache for every essay in the corpus, and pack it."""
    gateway = embed_corpus(load_run_config(config_path))
    total = gateway.calls("embed")
    fetched = gateway.counts["embed", BackendTag.LIVE]
    cached = gateway.counts["embed", BackendTag.CACHE]
    other = total - fetched - cached
    click.echo(
        f"embedded {total} titles ({fetched} live fetches, {cached} cache hits, "
        f"{other} replay/mock)"
    )


def embed_corpus(config: RunConfig) -> Gateway:
    """Embed every essay title through the configured backend; return the gateway.

    With a store-backed embedding backend, the model's pack is then rewritten
    from the rows it held plus every title just embedded, so that a title-kNN
    run reads the whole pool from one file.
    """
    corpus = load_corpus(config.corpus_dir, config.split_file)
    gateway = make_gateway(config, corpus)
    digests = [gateway.embed(essay.title).source_text_digest for essay in corpus.essays]
    embedder = gateway.embedding_backend
    if isinstance(embedder, StoreEmbeddingBackend):
        embedder.store.put_embedding_pack(embedder.model_name, digests)
    return gateway


def _load_records(path: Path) -> tuple[list[PredictionRecord], int]:
    """Decode every complete line of a records file; return them and where they end.

    Bytes after the last newline are a record torn by an interrupted run and
    are left out; :func:`run_experiment` truncates them before appending.
    """
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    records = []
    for number, line in enumerate(data[:complete].split(b"\n")[:-1], start=1):
        if line.strip():
            try:
                records.append(PredictionRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise AtcError(f"{path}, line {number}: not a prediction record ({exc})") from exc
    return records, complete


def _read_manifest(out_dir: Path, digest: str) -> dict:
    """The manifest an earlier session left in ``out_dir``; empty when there is none.

    A manifest of another config digest is refused, so one directory never
    mixes configs.
    """
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return {}
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded = manifest["config_digest"]  # every manifest, the first stub too, names its config
    except (ValueError, KeyError, TypeError) as exc:
        raise AtcError(f"{manifest_path}: unreadable manifest ({exc})") from exc
    if recorded != digest:
        raise AtcError(
            f"{out_dir} holds a run with config digest {recorded}, but this config has "
            f"digest {digest}; use another out_dir"
        )
    return manifest


def _pending(config: RunConfig) -> tuple[dict, list[PredictionRecord], int, Corpus, list[Essay]]:
    """The manifest and records already in ``out_dir`` (and where the records'
    complete lines end), the corpus, and the test essays still to run. Reads only."""
    manifest = _read_manifest(config.out_dir, config_digest(config.icl))
    corpus = load_corpus(config.corpus_dir, config.split_file)
    queries = sorted(corpus.test_essays(), key=lambda e: e.essay_id)
    records, complete = _load_records(config.out_dir / RECORDS_NAME)
    done_ids = {record.essay_id for record in records}
    return manifest, records, complete, corpus, [e for e in queries if e.essay_id not in done_ids]


def run_experiment(config: RunConfig) -> EvaluationReport:
    """Run the test split through selection, prompting and voting into ``out_dir``.

    Essays already recorded in ``out_dir`` are skipped, so an interrupted run
    resumes where it stopped; a torn last record is truncated and run again,
    and a directory written by another config is refused. Each new record is
    flushed as soon as it is written; the report and manifest cover every
    record in the directory. The manifest's call counts and wall clock add up
    over the sessions, each counted up to its last written record: a session
    that fails leaves its counts next to the config digest for the next one.
    """
    icl = config.icl
    label = run_label(icl)
    digest = config_digest(icl)
    earlier, records, complete, corpus, remaining = _pending(config)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if not earlier:
        # Stamp the digest now, so a run stopped before its full manifest is
        # still checked on resume.
        _write_json(out_dir / MANIFEST_NAME, {"config_digest": digest})
    records_path = out_dir / RECORDS_NAME
    size = records_path.stat().st_size if records_path.exists() else 0
    if size > complete:
        os.truncate(records_path, complete)
        click.echo(f"warning: {records_path}: dropped {size - complete} bytes of a torn last record", err=True)

    gateway = make_gateway(config, corpus)
    info = build_info_block(corpus) if icl.prompt.include_info else None
    pool = corpus.train_essays()

    started = time.monotonic()

    def counts() -> dict:
        """Calls and seconds of the sessions so far, this one included."""
        return {
            "chat_calls": earlier.get("chat_calls", 0) + gateway.calls("chat"),
            "embed_calls": earlier.get("embed_calls", 0) + gateway.calls("embed"),
            "wall_clock_seconds": round(earlier.get("wall_clock_seconds", 0) + time.monotonic() - started, 3),
        }

    counted = counts()
    try:
        with open(records_path, "a", encoding="utf-8") as handle:
            for essay in remaining:
                record = run_ensemble(essay, pool, icl, gateway, info=info)
                handle.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n")
                handle.flush()
                records.append(record)
                counted = counts()
    except BaseException:
        _write_json(out_dir / MANIFEST_NAME, {"config_digest": digest, **counted})
        raise

    records.sort(key=lambda record: record.essay_id)
    report = aggregate_runs(records, corpus, run_label=label, config_digest=digest)
    _write_json(out_dir / REPORT_JSON_NAME, report.to_dict())
    write_atomic(out_dir / REPORT_TEXT_NAME, render_report(report) + "\n")
    _write_json(out_dir / MANIFEST_NAME, {
        "artifact_version": __version__,
        "run_label": label,
        "config_digest": digest,
        "run_seed": icl.run_seed,
        "backend_tags_used": sorted(tag.value for tag in gateway.tags_used()),
        "essay_ids": [record.essay_id for record in records],
        "records_file": RECORDS_NAME,
        "report_file": REPORT_JSON_NAME,
        **counted,
    })
    return report


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--dry-run", is_flag=True, help="Print the request estimate and exit.")
def run(config_path: Path, dry_run: bool) -> None:
    """Run the selection + prompting + ensembling loop over the test split."""
    config = load_run_config(config_path)
    icl = config.icl
    if not icl.is_standard_grid():
        k_values, n_values = (",".join(map(str, values)) for values in (STANDARD_K, STANDARD_N_ROUNDS))
        click.echo(
            f"note: k={icl.k}, n={icl.n_rounds} is outside the standard grid "
            f"(k in {{{k_values}}}, n in {{{n_values}}})",
            err=True,
        )
    if dry_run:
        *_, corpus, remaining = _pending(config)
        per_essay = [e.m if icl.prompt.mode is PromptMode.ONE_BY_ONE else 1 for e in remaining]
        click.echo(f"run label:       {run_label(icl)}")
        click.echo(f"config digest:   {config_digest(icl)}")
        click.echo(f"essays to run:   {len(remaining)} (of {len(corpus.test_essays())} test essays)")
        click.echo(f"chat requests:   ~{icl.n_rounds * sum(per_essay)} (excluding parse retries)")
        if icl.strategy is SelectionStrategy.KNN_TITLE and icl.k > 0:
            # Each essay embeds its own title and every pool title once.
            pool = corpus.train_essays() if remaining else []
            titles = {e.title for e in [*pool, *remaining]}
            click.echo(f"embedding calls: {len(remaining) * (len(pool) + 1)} "
                       f"({len(titles)} distinct titles)")
        return

    report = run_experiment(config)
    out_dir = config.out_dir
    click.echo(render_report(report))
    click.echo(f"\nwrote {out_dir / RECORDS_NAME}, {out_dir / REPORT_JSON_NAME}, {out_dir / MANIFEST_NAME}")


@main.command("eval")
@click.argument("records_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("split_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--json-out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def eval_cmd(records_path: Path, corpus_dir: Path, split_file: Path, json_out: Path | None) -> None:
    """Score a records file against the corpus gold labels."""
    corpus = load_corpus(corpus_dir, split_file)
    records, _ = _load_records(records_path)
    if not records:
        raise click.ClickException(f"no records found in {records_path}")
    report = aggregate_runs(records, corpus)
    click.echo(render_report(report))
    if json_out is not None:
        _write_json(json_out, report.to_dict())
        click.echo(f"wrote {json_out}")


@main.command()
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("split_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--split", type=click.Choice(["train", "test"]), required=True)
@click.option("--featxt/--no-featxt", default=False,
              help="Inject title, sentence, paragraph number, and feature text.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def export(corpus_dir: Path, split_file: Path, split: str, featxt: bool, out: Path) -> None:
    """Export fine-tuning chat records as JSONL, one per argument component."""
    corpus = load_corpus(corpus_dir, split_file)
    count = export_finetune(corpus, Split(split.upper()), featxt, out)
    click.echo(f"wrote {count} records to {out}")


def entrypoint() -> None:
    # SIGTERM unwinds like any other failure, so a stopped run still leaves
    # its session's counts in the manifest.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        main(standalone_mode=True)
    except AtcError as exc:  # pragma: no cover - thin wrapper
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
