"""Command-line interface: stats, embed, run, eval, export.

Every experiment run writes a reproducibility manifest next to its records
and report, and already-recorded essays are skipped on rerun, so an
interrupted run resumes where it stopped, once the manifest shows that the
config and every other input deciding a record are the same. Records and
reports are serialized canonically (sorted keys, no timestamps), which makes
replay-backed reruns byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

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


COMMANDS: dict[str, argparse.Namespace] = {}


def command(*arguments: tuple[tuple, dict], name: str | None = None) -> Callable[[Callable], argparse.Namespace]:
    """Declare the function the subcommand ``name`` (by default its own) taking ``arguments``. :func:`main` looks
    up the returned command's ``callback`` at each call, so a caller may wrap it."""
    def declare(callback: Callable) -> argparse.Namespace:
        COMMANDS[name or callback.__name__] = declared = argparse.Namespace(callback=callback, arguments=arguments)
        return declared
    return declare


def _arg(*names: str, **options) -> tuple[tuple, dict]:
    """One argument of a subcommand, as ``ArgumentParser.add_argument`` takes it."""
    return names, options


def _path(kind: str, exists: bool = True) -> Callable[[str], Path]:
    """An argparse ``type``: a Path, refused as a usage error if it names the other kind, or, with ``exists``, nothing."""
    def check(value: str) -> Path:
        path = Path(value)
        if path.exists() and path.is_dir() != (kind == "Directory"):
            raise argparse.ArgumentTypeError(f"{kind} '{value}' is a {'file' if kind == 'Directory' else 'directory'}.")
        if exists and not path.exists():
            raise argparse.ArgumentTypeError(f"{kind} '{value}' does not exist.")
        return path
    return check


_CORPUS_DIR = _arg("corpus_dir", metavar="CORPUS_DIR", type=_path("Directory"))
_SPLIT_FILE = _arg("split_file", metavar="SPLIT_FILE", type=_path("File"))
_CONFIG = _arg("--config", dest="config_path", metavar="FILE", required=True, type=_path("File"))
_JSON_OUT = _arg("--json-out", metavar="FILE", type=_path("File", exists=False))
_HELP = _arg("--help", action="help", help="Show this message and exit.")


@command(_CORPUS_DIR, _SPLIT_FILE, _arg("--scope", choices=["all", "train", "test"], default="all"), _JSON_OUT)
def stats(corpus_dir: Path, split_file: Path, scope: str, json_out: Path | None) -> None:
    """Print corpus statistics for the chosen scope."""
    corpus = load_corpus(corpus_dir, split_file)
    result = compute_stats(corpus, None if scope == "all" else Split(scope.upper()))
    print(f"Corpus statistics ({scope}):")
    print(f"  Essays      {result.essay_count:>8}")
    print(f"  Paragraphs  {result.paragraph_count:>8}")
    print(f"  Sentences   {result.sentence_count:>8}")
    print(f"  Tokens      {result.token_count:>8}")
    print("Component statistics:")
    for label in LABELS:
        print(f"  {label.display_name + 's':<14}{result.label_counts[label]:>6}")
    print(f"  {'Total':<14}{result.component_count:>6}")
    if json_out is not None:
        _write_json(json_out, result.to_dict())
        print(f"wrote {json_out}")


@command(_CONFIG)
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
    print(f"embedded {total} titles ({fetched} live fetches, {cached} cache hits, {other} replay/mock)")


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
        print(f"warning: {records_path}: dropped {size - complete} bytes of a torn last record", file=sys.stderr)

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
                    print(f"warning: essay {essay.essay_id} failed too: {message}", file=sys.stderr)
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


@command(_CONFIG, _arg("--dry-run", action="store_true", help="Print the request estimate and exit."))
def run(config_path: Path, dry_run: bool) -> None:
    """Run the selection + prompting + ensembling loop over the test split."""
    config = load_run_config(config_path)
    icl = config.icl
    if not icl.is_standard_grid():
        k_values, n_values = (",".join(map(str, values)) for values in (STANDARD_K, STANDARD_N_ROUNDS))
        print(f"note: k={icl.k}, n={icl.n_rounds} is outside the standard grid "
              f"(k in {{{k_values}}}, n in {{{n_values}}})", file=sys.stderr)
    if dry_run:
        *_, corpus, remaining = _pending(config)
        if _chat_upstream(config.backend) == "mock":
            _mock_responder(config.backend, corpus)  # refuses what the run would refuse
        per_essay = [len(prompting.round_instructions(e.m, icl.prompt.mode)) for e in remaining]
        print(f"run label:       {run_label(icl)}")
        print(f"config digest:   {config_digest(icl)}")
        print(f"essays to run:   {len(remaining)} (of {len(corpus.test_essays())} test essays)")
        print(f"chat requests:   ~{icl.n_rounds * sum(per_essay)} (excluding parse retries)")
        if icl.strategy is SelectionStrategy.KNN_TITLE and icl.k > 0:
            # Each essay embeds its own title and every pool title once.
            pool = corpus.train_essays() if remaining else []
            titles = {e.title for e in [*pool, *remaining]}
            print(f"embedding calls: {len(remaining) * (len(pool) + 1)} ({len(titles)} distinct titles)")
        return

    report = run_experiment(config)
    out_dir = config.out_dir
    print(render_report(report))
    print(f"\nwrote {out_dir / RECORDS_NAME}, {out_dir / REPORT_JSON_NAME}, {out_dir / MANIFEST_NAME}")


@command(_arg("records_path", metavar="RECORDS_PATH", type=_path("File")), _CORPUS_DIR, _SPLIT_FILE, _JSON_OUT,
         name="eval")
def eval_cmd(records_path: Path, corpus_dir: Path, split_file: Path, json_out: Path | None) -> None:
    """Score a records file against the corpus gold labels."""
    corpus = load_corpus(corpus_dir, split_file)
    records, _ = _load_records(records_path)
    if not records:
        raise AtcError(f"no records found in {records_path}")
    report = aggregate_runs(records, corpus)
    print(render_report(report))
    if json_out is not None:
        _write_json(json_out, report.to_dict())
        print(f"wrote {json_out}")


@command(_CORPUS_DIR, _SPLIT_FILE, _arg("--split", choices=["train", "test"], required=True),
         _arg("--featxt", action=argparse.BooleanOptionalAction, default=False,
              help="Inject title, sentence, paragraph number, and feature text."),
         _arg("--out", metavar="FILE", required=True, type=_path("File", exists=False)))
def export(corpus_dir: Path, split_file: Path, split: str, featxt: bool, out: Path) -> None:
    """Export fine-tuning chat records as JSONL, one per argument component."""
    from .finetune import export as export_finetune

    corpus = load_corpus(corpus_dir, split_file)
    count = export_finetune(corpus, Split(split.upper()), featxt, out)
    print(f"wrote {count} records to {out}")


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run the subcommand ``argv`` (by default ``sys.argv[1:]``) names; return the exit code, 0 or 2 for a usage error.

    In ``standalone_mode`` an :class:`AtcError` prints one ``error:`` line, and Ctrl-C ``Aborted!``, on stderr and
    gives 1; otherwise they propagate, and so does a usage error's ``SystemExit``.
    """
    parser = argparse.ArgumentParser(prog="atc-icl", description="Argument type classification experiments on"
                                     " persuasive essays.", add_help=False, allow_abbrev=False)
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, declared in COMMANDS.items():
        doc = declared.callback.__doc__
        subparser = subparsers.add_parser(name, help=doc, description=doc, add_help=False, allow_abbrev=False)
        for names, options in [*declared.arguments, _HELP]:
            subparser.add_argument(*names, **options)
    for names, options in [_arg("--version", action="version", version=f"%(prog)s, version {__version__}",
                                help="Show the version and exit."), _HELP]:
        parser.add_argument(*names, **options)
    try:
        args = vars(parser.parse_args(argv))
        COMMANDS[args.pop("command")].callback(**args)
    except (SystemExit, AtcError, KeyboardInterrupt) as exc:
        if not standalone_mode:
            raise
        if isinstance(exc, SystemExit):  # a usage error, --help or --version, or SIGTERM
            return exc.code
        sys.stdout.flush()  # what the command printed comes first
        print(f"error: {exc}" if isinstance(exc, AtcError) else "\nAborted!", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    # SIGTERM unwinds like any other failure, so a stopped run still leaves
    # its session's counts in the manifest.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
