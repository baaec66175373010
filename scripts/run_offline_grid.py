#!/usr/bin/env python3
"""Run the published prompt grid fully offline against a synthetic corpus.

Demonstrates the whole pipeline without credentials: every grid row is one
``run_experiment`` over the synthetic test split with a mock chat backend,
in its own run directory, and prints its report row; the rows share their
score columns. The published rows are the ``icl`` sections of the shipped
``configs/*.yaml``. Title embeddings are first recorded and packed by
``embed_corpus``, as ``atc-icl embed`` and a title-kNN ``cache`` run record
them (hash vectors through the cache), and the title-kNN rows replay them
from that store.
``gold_echo`` must land macro F1 = 1.0 on every row, and the script exits 1
when a row does not; ``constant`` shows what an always-Premise baseline scores.

Usage:
    python3 scripts/run_offline_grid.py [--corpus DIR] [--mock gold_echo|constant]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

from atc_icl.cli import embed_corpus, make_gateway, run_experiment
from atc_icl.config import BackendConfig, RunConfig, load_run_config
from atc_icl.corpus import load_corpus
from atc_icl.ensemble import IclConfig
from atc_icl.metrics import render_score_rows
from atc_icl.prompting import PromptConfig, PromptMode
from atc_icl.selection import SelectionStrategy
from atc_icl.synth import SPLIT_FILE_NAME, generate_corpus, small_shape

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: The icl section of every shipped config (the published rows), then three
#: rows no config ships. Each run takes its run_seed from --seed instead.
GRID = [load_run_config(path).icl for path in sorted(CONFIGS.glob("*.yaml"))] + [
    # (strategy, k, n, PromptConfig(info, essay, fts, mode), ...)
    # random neighborhoods: the one strategy that ranks once per round
    IclConfig(SelectionStrategy.KRN, 5, 5, PromptConfig(True, True, False), run_seed=0),
    IclConfig(SelectionStrategy.KNN_LEN, 5, 3, PromptConfig(True, True, True, PromptMode.ONE_BY_ONE), run_seed=0),
    # k = 0: no demonstrations. Not yet how a fine-tuned model should be scored: it
    # sends the few-shot prompt, not the finetune.SYSTEM_TEXT/build_user_text format.
    IclConfig(SelectionStrategy.KNN_LEN, 0, 1, PromptConfig(False, True, True, PromptMode.ONE_BY_ONE),
              run_seed=0, model_name="ft:gpt-3.5-turbo"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path, default=None,
                        help="corpus directory (default: generate a 40-essay synthetic one)")
    parser.add_argument("--mock", choices=("gold_echo", "constant"), default="gold_echo")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = args.corpus
        if corpus_dir is None:
            corpus_dir = Path(tmp) / "corpus"
            generate_corpus(corpus_dir, small_shape(40, 28), seed=5)
        corpus = load_corpus(corpus_dir, corpus_dir / SPLIT_FILE_NAME)
        print(f"corpus: {len(corpus.essays)} essays, {len(corpus.test_essays())} test queries; "
              "title embeddings replayed from a packed store\n")

        store_dir = Path(tmp) / "store"
        replay = BackendConfig(chat="mock", mock_mode=args.mock, embedding="replay",
                               embedding_upstream="hash", store_dir=store_dir)
        configs = [
            RunConfig(
                corpus_dir=corpus_dir, split_file=corpus_dir / SPLIT_FILE_NAME,
                out_dir=Path(tmp) / "out" / f"row{row}",
                icl=icl._replace(run_seed=args.seed),
                backend=replay,
            )
            for row, icl in enumerate(GRID)
        ]
        recording = configs[0]._replace(backend=replay._replace(embedding="cache"))
        with contextlib.closing(make_gateway(recording, None)) as gateway:
            embed_corpus(corpus, gateway)

        imperfect, labelled = 0, []
        for config in configs:
            report = run_experiment(config)
            imperfect += report.macro_f1 < 1.0
            labelled.append(report._replace(run_label=f"{report.run_label} ({config.icl.model_name})"))
        print("\n".join(render_score_rows(labelled)[1:]))

    if args.mock == "gold_echo" and imperfect:
        print(f"error: {imperfect} gold_echo rows scored below macro F1 1.0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
