"""Command-line interface: stats, embed, run, eval, export.

Every experiment run writes a reproducibility manifest next to its records
and report, and already-recorded essays are skipped on rerun, so an
interrupted run resumes where it stopped, once the manifest shows that the
config and every other input deciding a record are the same. Records and
reports are serialized canonically (sorted keys, no timestamps), which makes
replay-backed reruns byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__, features, prompting
from .config import BackendConfig, RunConfig, config_digest, load_run_config, run_label
from .corpus import Corpus, Essay, LABELS, Split, compute_stats, load_corpus
from .ensemble import STANDARD_K, STANDARD_N_ROUNDS, PredictionRecord, PromptCache, run_ensemble
from .errors import AtcError, ConfigError
from .gateway import (
    BackendTag,
    Gateway,
    HashEmbeddingBackend,
    HttpSession,
    LiveChatBackend,
    LiveEmbeddingBackend,
    MockChatBackend,
    ResponseStore,
    StoreChatBackend,
    StoreEmbeddingBackend,
    write_atomic,
)
from .metrics import EvaluationReport, aggregate_runs, render_report
from .prompting import build_info_block
from .selection import EssayPool, SelectionStrategy

if TYPE_CHECKING:
    from .mocks import Responder

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
REPORT_JSON_NAME = "report.json"
REPORT_TEXT_NAME = "report.txt"


def make_gateway(config: RunConfig, corpus: Corpus | None) -> Gateway:
    """Wire chat and embedding backends according to the run config.

    ``cache`` puts the store in front of the configured upstream; ``replay``
    is the store with no upstream. Both file embeddings under the model of
    ``embedding_upstream``, so a ``replay`` reads what its ``cache`` twin recorded.
    The live backends share one :class:`HttpSession` to ``base_url``, which
    keeps one keep-alive connection for each thread that posts, so the
    ``workers`` threads of a live run bound its connections. The gateway owns
    the session: close it when the run is done. It reads the proxy here, so a
    bad proxy variable is refused first, and so is a ``store_dir`` that is, or
    lies under, something other than a directory. Given no corpus, it wires no
    chat side, so an embedding-only caller builds no chat mock and no session
    for it.
    """
    backend = config.backend
    store = None
    if backend.store_dir:
        _check_directory(backend.store_dir, f"backend.store_dir {backend.store_dir} cannot hold a store")
        store = ResponseStore(backend.store_dir)

    chat_kind = _chat_upstream(backend) if corpus is not None else None
    embed_kind = backend.embedding_upstream if backend.embedding == "cache" else backend.embedding
    live = "live" in (chat_kind, embed_kind)
    session = HttpSession(backend.base_url, backend.api_key_env) if live else None

    chat = None
    if chat_kind == "mock":
        chat = MockChatBackend(responder=_mock_responder(backend, corpus))
    elif chat_kind == "live":
        chat = LiveChatBackend(session)
    if corpus is not None and backend.chat in ("cache", "replay"):
        chat = StoreChatBackend(store, chat)

    embedder = None
    if embed_kind == "hash":
        embedder = HashEmbeddingBackend(dim=backend.embedding_dim)
    elif embed_kind == "live":
        embedder = LiveEmbeddingBackend(session, backend.embedding_model)
    if backend.embedding in ("cache", "replay"):
        embedder = StoreEmbeddingBackend(store, backend.embedding_model_name, embedder)

    return Gateway(chat_backend=chat, embedding_backend=embedder, session=session)


def _check_directory(path: Path, refusal: str) -> None:
    """Refuse ``path`` with ``refusal`` if its nearest part that exists, where a first write fails, is no directory."""
    existing = path
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"{refusal}: {existing} is not a directory")


def _chat_upstream(backend: BackendConfig) -> str:
    """What answers a chat request the store lacks: ``live``, ``mock``, or ``replay`` (nothing)."""
    return backend.cache_upstream if backend.chat == "cache" else backend.chat


def _mock_responder(backend: BackendConfig, corpus: Corpus) -> Responder:
    """The mock of ``backend.mock_mode``; ``gold_echo`` refuses two essays of one title."""
    # Imported here, as is finetune by export, so a replay or live run does not load it.
    from .mocks import constant_label_responder, gold_echo_responder

    if backend.mock_mode == "gold_echo":
        return gold_echo_responder(corpus)
    return constant_label_responder()


def _write_json(path: Path, data: dict) -> None:
    try:
        write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise AtcError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    config = load_run_config(config_path)
    corpus = load_corpus(config.corpus_dir, config.split_file)
    with contextlib.closing(make_gateway(config, None)) as gateway:  # titles need no chat backend
        embed_corpus(corpus, gateway)
    total = gateway.calls("embed")
    fetched = gateway.counts["embed", BackendTag.LIVE]
    cached = gateway.counts["embed", BackendTag.CACHE]
    other = total - fetched - cached
    click.echo(
        f"embedded {total} titles ({fetched} live fetches, {cached} cache hits, "
        f"{other} replay/mock)"
    )


def embed_corpus(corpus: Corpus, gateway: Gateway) -> None:
    """Embed every essay title of ``corpus``, in corpus order, through ``gateway``, which counts the calls.

    With a store-backed embedding backend, the model's pack is then rewritten
    from the rows it held plus every title just embedded, so that a title-kNN
    run reads the whole pool from one file. ``atc-icl embed`` calls it, and
    so does :func:`run_experiment` before its first essay.
    """
    digests = [gateway.embed(essay.title).source_text_digest for essay in corpus.essays]
    embedder = gateway.embedding_backend
    if isinstance(embedder, StoreEmbeddingBackend):
        embedder.store.put_embedding_pack(embedder.model_name, digests)


def _load_records(path: Path) -> tuple[list[PredictionRecord], int]:
    """Decode every complete line of a records file; return them and where they end.

    Bytes after the last newline are a record torn by an interrupted run and
    are left out; :func:`run_experiment` truncates them before appending. A
    second record for one essay is refused, so no essay is scored twice.
    """
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    records, first_lines = [], {}
    for number, line in enumerate(data[:complete].split(b"\n")[:-1], start=1):
        if line.strip():
            try:
                record = PredictionRecord.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise AtcError(f"{path}, line {number}: not a prediction record ({exc})") from exc
            first = first_lines.setdefault(record.essay_id, number)
            if first != number:
                raise AtcError(f"{path}, line {number}: a second record for essay {record.essay_id},"
                               f" whose first is on line {first}")
            records.append(record)
    return records, complete


def _prompt_digest() -> str:
    """SHA-256 over the fixed texts every prompt is built from, and how answers are read.

    They are package constants, so they can change between versions of
    ``atc-icl`` under one config digest: the prompt texts, the retry budget,
    and the label spellings an answer may use.
    """
    texts = [
        prompting.SYSTEM_ALL_AT_ONCE, prompting.SYSTEM_ONE_BY_ONE,
        prompting.INFO_HEADER, prompting.DEMO_HEADER, prompting.QUERY_HEADER,
        prompting.CLASS_DEFINITIONS_HEADER, prompting.TRAIN_COUNTS_LINE,
        *(prompting.CLASS_DEFINITIONS[label] for label in LABELS),
        prompting.EXAMPLE_HEADER, prompting.TITLE_LINE, prompting.FULL_TEXT_HEADER,
        prompting.DEMO_COMPONENTS_HEADER, prompting.QUERY_COMPONENTS_HEADER,
        prompting.ALL_AT_ONCE_INSTRUCTION, prompting.ONE_BY_ONE_INSTRUCTION,
        prompting.FORMAT_REMINDER, prompting.ONE_BY_ONE_REMINDER,
        features.FEATXT_TEMPLATE,
        prompting.MAX_RETRIES,
        {alias: label.value for alias, label in prompting._LABEL_ALIASES.items()},
    ]
    return hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest()


def _inputs(config: RunConfig, corpus: Corpus) -> dict:
    """What decides a record besides the config digest.

    The corpus and prompt digests; the embedding model a title-kNN run ranks
    with; and the answer source of a store miss: the mock mode, ``live``, or
    None for ``replay``, which answers only what a store holds.
    """
    backend = config.backend
    knn_title = config.icl.strategy is SelectionStrategy.KNN_TITLE
    return {
        "corpus_digest": corpus.digest,
        "prompt_digest": _prompt_digest(),
        "embedding_model": backend.embedding_model_name if knn_title else None,
        "answer_source": {"mock": backend.mock_mode, "live": "live"}.get(_chat_upstream(backend)),
    }


def _read_manifest(out_dir: Path, digest: str, inputs: dict) -> dict:
    """The manifest an earlier session left in ``out_dir``; empty when there is none.

    A manifest of another config digest or other inputs is refused, so one
    directory never mixes them. Answer sources are compared only when both
    sessions have one. A manifest that records no inputs is refused too: it
    cannot show that they are the same.
    """
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return {}
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded = manifest["config_digest"]  # every manifest, the first stub too, names its config
        recorded_inputs = manifest.get("inputs")
        if recorded_inputs is not None:
            recorded_inputs = {part: recorded_inputs[part] for part in inputs}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise AtcError(f"{manifest_path}: unreadable manifest ({exc})") from exc
    if recorded != digest:
        raise AtcError(
            f"{out_dir} holds a run with config digest {recorded}, but this config has "
            f"digest {digest}; use another out_dir"
        )
    if recorded_inputs is None:
        raise AtcError(
            f"{out_dir} holds a run whose manifest records no inputs, so a resume cannot be "
            f"checked; use another out_dir"
        )
    for part, value in inputs.items():
        was = recorded_inputs[part]
        if was != value and not (part == "answer_source" and None in (was, value)):
            raise AtcError(
                f"{out_dir} holds a run with {part} {was!r}, but this run has {part} {value!r};"
                f" use another out_dir"
            )
    return manifest


def _pending(config: RunConfig) -> tuple[dict, dict, list[PredictionRecord], int, Corpus, list[Essay]]:
    """The manifest already in ``out_dir``, the run's inputs, the records already
    there (and where their complete lines end), the corpus, and the test essays
    still to run. Reads only.

    A train pool smaller than the 2k-essay neighborhood each essay is ranked
    in is refused here, before a run or an estimate starts, and so are a test
    split with no argument component to score, an ``out_dir`` that is, or
    lies under, something other than a directory, and one of another config
    or other inputs. A ``replay`` session keeps the answer source of the
    sessions before it.
    """
    _check_directory(config.out_dir, f"out_dir {config.out_dir} cannot hold a run")
    corpus = load_corpus(config.corpus_dir, config.split_file)
    pool_size, k = len(corpus.train_essays()), config.icl.k
    if 2 * k > pool_size:
        raise AtcError(
            f"{config.split_file} lists {pool_size} train essays, but k = {k} needs a"
            f" neighborhood of {2 * k}"
        )
    queries = sorted(corpus.test_essays(), key=lambda e: e.essay_id)
    if not any(e.components for e in queries):
        raise AtcError(
            f"{config.split_file} lists no test essay with an argument component: nothing to evaluate"
        )
    inputs = _inputs(config, corpus)
    manifest = _read_manifest(config.out_dir, config_digest(config.icl), inputs)
    if inputs["answer_source"] is None and manifest:
        inputs["answer_source"] = manifest["inputs"]["answer_source"]
    records, complete = _load_records(config.out_dir / RECORDS_NAME)
    done_ids = {record.essay_id for record in records}
    return manifest, inputs, records, complete, corpus, [e for e in queries if e.essay_id not in done_ids]


def run_experiment(config: RunConfig) -> EvaluationReport:
    """Run the test split through selection, prompting and voting into ``out_dir``.

    Essays already recorded in ``out_dir`` are skipped, so an interrupted run
    resumes where it stopped; a torn last record is truncated and run again,
    and a directory written by another config is refused. Each new record is
    flushed as soon as it is written; the report and manifest cover every
    record in the directory. The manifest's call counts and wall clock add up
    over the sessions, each counted up to its last written record: a session
    that fails leaves its counts next to the config digest for the next one.

    A live run (chat ``live``, or ``cache`` over ``live``) asks up to
    ``backend.workers`` essays at once, each in a pool thread, and writes
    each record in essay order as soon as the essays before it are done.
    Other runs ask one essay after another in this thread. Each essay counts
    its calls on a gateway of its own, added to the run's when its record is
    written. Once an essay fails no other starts; those already asked finish,
    so their answers reach the store, and the first failure in essay order is
    raised, after one warning line on stderr for each other essay that failed.

    A title-kNN run with k > 0 and a ``cache`` embedding backend first packs
    every corpus title through :func:`embed_corpus`, as ``atc-icl embed``
    does, so that each ranking, and a later replay's, reads the pack's
    distance block. Its calls are left out of ``embed_calls``, which counts
    the rankings' lookups alone, but their backends are in
    ``backend_tags_used``. A failure while packing ends the session as a
    failed essay does, with no record written.
    """
    icl = config.icl
    label = run_label(icl)
    digest = config_digest(icl)
    earlier, inputs, records, complete, corpus, remaining = _pending(config)
    gateway = make_gateway(config, corpus)  # refuses a bad proxy variable before out_dir is made
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if earlier.get("inputs") != inputs:
        # Stamp the digest and inputs now, so a run stopped before its full
        # manifest is still checked on resume.
        _write_json(out_dir / MANIFEST_NAME, {**earlier, "config_digest": digest, "inputs": inputs})
    records_path = out_dir / RECORDS_NAME
    size = records_path.stat().st_size if records_path.exists() else 0
    if size > complete:
        os.truncate(records_path, complete)
        click.echo(f"warning: {records_path}: dropped {size - complete} bytes of a torn last record", err=True)

    info = build_info_block(corpus) if icl.prompt.include_info else None
    cache = PromptCache()
    pool = EssayPool(corpus.train_essays())
    failed = threading.Event()

    def run_essay(essay: Essay) -> tuple[PredictionRecord, Gateway] | None:
        """The essay's record and the gateway that counted its calls; None once an essay has failed."""
        if failed.is_set():
            return None
        counter = Gateway(gateway.chat_backend, gateway.embedding_backend, gateway.retry)
        try:
            return run_ensemble(essay, pool, icl, counter, info=info, cache=cache), counter
        except BaseException:
            failed.set()
            raise

    started = time.monotonic()

    def counts() -> dict:
        """Calls, tokens and seconds of the sessions so far, this one included."""
        tokens = earlier.get("tokens", {})
        return {
            "chat_calls": earlier.get("chat_calls", 0) + gateway.calls("chat"),
            "embed_calls": earlier.get("embed_calls", 0) + gateway.calls("embed"),
            "tokens": {kind: tokens.get(kind, 0) + gateway.tokens[kind] for kind in ("prompt", "completion")},
            "wall_clock_seconds": round(earlier.get("wall_clock_seconds", 0) + time.monotonic() - started, 3),
        }

    counted = counts()
    packing = Gateway(embedding_backend=gateway.embedding_backend, retry=gateway.retry)
    executor, futures = None, []
    try:
        if icl.strategy is SelectionStrategy.KNN_TITLE and icl.k > 0 and config.backend.embedding == "cache":
            embed_corpus(corpus, packing)
            if gateway.session is not None:  # this thread's connection: a live run's workers bound its connections
                gateway.session.close()
        with open(records_path, "a", encoding="utf-8") as handle:
            if _chat_upstream(config.backend) == "live":
                # Imported here, so a replay or mock run does not pay for it in set-up.
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(config.backend.workers)
                futures = [executor.submit(run_essay, essay) for essay in remaining]
                results = (future.result() for future in futures)
            else:
                results = map(run_essay, remaining)
            for record, counter in results:
                handle.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n")
                handle.flush()
                records.append(record)
                gateway.counts.update(counter.counts)
                gateway.tokens.update(counter.tokens)
                counted = counts()
    except BaseException as exc:
        failed.set()
        _write_json(out_dir / MANIFEST_NAME, {"config_digest": digest, "inputs": inputs, **counted})
        if executor is not None:
            executor.shutdown(cancel_futures=True)  # waits for the essays in flight
            for essay, future in zip(remaining, futures):
                error = None if future.cancelled() else future.exception()
                if error is not None and error is not exc:
                    message = f"{type(error).__name__}: {error}".replace("\n", " ")
                    click.echo(f"warning: essay {essay.essay_id} failed too: {message}", err=True)
        raise
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)  # waits for the essays in flight
        gateway.close()

    records.sort(key=lambda record: record.essay_id)
    report = aggregate_runs(records, corpus, run_label=label, config_digest=digest)
    _write_json(out_dir / REPORT_JSON_NAME, report.to_dict())
    write_atomic(out_dir / REPORT_TEXT_NAME, render_report(report) + "\n")
    _write_json(out_dir / MANIFEST_NAME, {
        "artifact_version": __version__,
        "run_label": label,
        "config_digest": digest,
        "inputs": inputs,
        "run_seed": icl.run_seed,
        "backend_tags_used": sorted(tag.value for tag in gateway.tags_used() | packing.tags_used()),
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
        if _chat_upstream(config.backend) == "mock":
            _mock_responder(config.backend, corpus)  # refuses what the run would refuse
        per_essay = [len(prompting.round_instructions(e.m, icl.prompt.mode)) for e in remaining]
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
    from .finetune import export as export_finetune

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
