"""Command-line interface: stats, embed, run, eval, export.

Every experiment run writes a reproducibility manifest next to its records
and report, and already-recorded essays are skipped on rerun, so an
interrupted run resumes where it stopped. Records and reports are serialized
canonically (sorted keys, no timestamps), which makes replay-backed reruns
byte-identical.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from . import __version__
from .config import RunConfig, config_digest, load_run_config, run_label
from .corpus import Corpus, Essay, LABELS, Scope, Split, compute_stats, load_corpus
from .ensemble import PredictionRecord, run_ensemble
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
)
from .metrics import EvaluationReport, aggregate_runs, render_report
from .mocks import constant_label_responder, gold_echo_responder
from .prompting import PromptMode, build_info_block, load_class_definitions
from .selection import SelectionStrategy

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
REPORT_JSON_NAME = "report.json"
REPORT_TEXT_NAME = "report.txt"


def make_gateway(config: RunConfig, corpus: Corpus | None = None) -> Gateway:
    """Wire chat and embedding backends according to the run config.

    ``cache`` puts the store in front of the configured upstream; ``replay``
    is the store with no upstream.
    """
    backend = config.backend
    store = ResponseStore(backend.store_dir) if backend.store_dir else None

    chat_kind = backend.cache_upstream if backend.chat == "cache" else backend.chat
    chat = None
    if chat_kind == "mock":
        if backend.mock_mode == "gold_echo":
            if corpus is None:
                raise AtcError("gold-echo mock needs a loaded corpus")
            chat = MockChatBackend(responder=gold_echo_responder(corpus))
        else:
            label = {l.display_name: l for l in LABELS}.get(backend.mock_constant_label)
            if label is None:
                raise AtcError(f"unknown mock constant label {backend.mock_constant_label!r}")
            chat = MockChatBackend(responder=constant_label_responder(label))
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
        model_name = backend.embedding_model if embedder is None else embedder.model_name
        embedder = StoreEmbeddingBackend(store, model_name, embedder)

    return Gateway(chat_backend=chat, embedding_backend=embedder)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _print_stats(stats, scope: Scope) -> None:
    click.echo(f"Corpus statistics ({scope.value}):")
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
@click.option("--scope", type=click.Choice([s.value for s in Scope]), default="all")
@click.option("--json-out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def stats(corpus_dir: Path, split_file: Path, scope: str, json_out: Path | None) -> None:
    """Print corpus statistics for the chosen scope."""
    corpus = load_corpus(corpus_dir, split_file)
    result = compute_stats(corpus, Scope(scope))
    _print_stats(result, Scope(scope))
    if json_out is not None:
        _write_json(json_out, result.to_dict())
        click.echo(f"wrote {json_out}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
def embed(config_path: Path) -> None:
    """Warm the title-embedding cache for every essay in the corpus."""
    config = load_run_config(config_path)
    corpus = load_corpus(config.corpus_dir, config.split_file)
    gateway = make_gateway(config, corpus)
    for essay in corpus.essays:
        gateway.embed(essay.title)
    total = gateway.calls("embed")
    fetched = gateway.counts["embed", BackendTag.LIVE]
    cached = gateway.counts["embed", BackendTag.CACHE]
    other = total - fetched - cached
    click.echo(
        f"embedded {total} titles ({fetched} live fetches, {cached} cache hits, "
        f"{other} replay/mock)"
    )


def _load_records(path: Path) -> list[PredictionRecord]:
    """Decode every complete line of a records file.

    Bytes after the last newline are a record torn by an interrupted run and
    are left out; :func:`run_experiment` truncates them before appending.
    """
    if not path.exists():
        return []
    data = path.read_bytes()
    records = []
    for number, line in enumerate(data[: data.rfind(b"\n") + 1].split(b"\n")[:-1], start=1):
        if line.strip():
            try:
                records.append(PredictionRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise AtcError(f"{path}, line {number}: not a prediction record ({exc})") from exc
    return records


def _drop_torn_tail(path: Path) -> None:
    if not path.exists():
        return
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        click.echo(f"warning: {path}: dropped {len(data) - keep} bytes of a torn last record", err=True)


def _check_config_digest(out_dir: Path, digest: str) -> None:
    """Refuse to resume a run directory that was written by another config."""
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return
    try:
        recorded = json.loads(manifest_path.read_text(encoding="utf-8"))["config_digest"]
    except (ValueError, KeyError, TypeError) as exc:
        raise AtcError(f"{manifest_path}: unreadable manifest ({exc})") from exc
    if recorded != digest:
        raise AtcError(
            f"{out_dir} holds a run with config digest {recorded}, but this config has "
            f"digest {digest}; use another out_dir"
        )


def _pending(config: RunConfig) -> tuple[Corpus, list[Essay], list[PredictionRecord], list[Essay]]:
    """The corpus, its test essays, the records already in ``out_dir``, and the
    test essays still to run. Reads only."""
    _check_config_digest(config.out_dir, config_digest(config.icl))
    corpus = load_corpus(config.corpus_dir, config.split_file)
    queries = sorted(corpus.test_essays(), key=lambda e: e.essay_id)
    records = _load_records(config.out_dir / RECORDS_NAME)
    done_ids = {record.essay_id for record in records}
    return corpus, queries, records, [e for e in queries if e.essay_id not in done_ids]


def run_experiment(config: RunConfig) -> EvaluationReport:
    """Run the test split through selection, prompting and voting into ``out_dir``.

    Essays already recorded in ``out_dir`` are skipped, so an interrupted run
    resumes where it stopped; a torn last record is truncated and run again,
    and a directory written by another config is refused. Each new record is
    flushed as soon as it is written; the report and manifest cover every
    record in the directory.
    """
    icl = config.icl
    label = run_label(icl)
    digest = config_digest(icl)
    corpus, _, records, remaining = _pending(config)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _drop_torn_tail(out_dir / RECORDS_NAME)

    gateway = make_gateway(config, corpus)
    definitions = (
        load_class_definitions(config.class_definitions) if config.class_definitions else None
    )
    info = build_info_block(corpus, definitions) if icl.prompt.include_info else None
    pool = corpus.train_essays()

    started = time.monotonic()
    with open(out_dir / RECORDS_NAME, "a", encoding="utf-8") as handle:
        for essay in remaining:
            record = run_ensemble(essay, pool, icl, gateway, info=info)
            handle.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n")
            handle.flush()
            records.append(record)
    elapsed = time.monotonic() - started

    records.sort(key=lambda record: record.essay_id)
    report = aggregate_runs(records, corpus, run_label=label, config_digest=digest)
    _write_json(out_dir / REPORT_JSON_NAME, report.to_dict())
    (out_dir / REPORT_TEXT_NAME).write_text(render_report(report) + "\n", encoding="utf-8")
    _write_json(out_dir / MANIFEST_NAME, {
        "artifact_version": __version__,
        "run_label": label,
        "config_digest": digest,
        "run_seed": icl.run_seed,
        "backend_tags_used": sorted(tag.value for tag in gateway.tags_used()),
        "essay_ids": [record.essay_id for record in records],
        "records_file": RECORDS_NAME,
        "report_file": REPORT_JSON_NAME,
        "chat_calls": gateway.calls("chat"),
        "embed_calls": gateway.calls("embed"),
        "wall_clock_seconds": round(elapsed, 3),
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
        click.echo(
            f"note: k={icl.k}, n={icl.n_rounds} is outside the standard grid "
            f"(k in {{3,5}}, n in {{3,5}})",
            err=True,
        )
    if dry_run:
        corpus, queries, _, remaining = _pending(config)
        per_essay = [e.m if icl.prompt.mode is PromptMode.ONE_BY_ONE else 1 for e in remaining]
        click.echo(f"run label:       {run_label(icl)}")
        click.echo(f"config digest:   {config_digest(icl)}")
        click.echo(f"essays to run:   {len(remaining)} (of {len(queries)} test essays)")
        click.echo(f"chat requests:   ~{icl.n_rounds * sum(per_essay)} (excluding parse retries)")
        if icl.strategy is SelectionStrategy.KNN_TITLE and icl.k > 0:
            pool_size = len(corpus.train_essays())
            click.echo(f"embedding calls: <= {pool_size + len(queries)} (cached after first run)")
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
    records = _load_records(records_path)
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
    count = export_finetune(
        corpus, Split.TRAIN if split == "train" else Split.TEST, featxt, out
    )
    click.echo(f"wrote {count} records to {out}")


def entrypoint() -> None:
    try:
        main(standalone_mode=True)
    except AtcError as exc:  # pragma: no cover - thin wrapper
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
