#!/usr/bin/env python3
"""Run the published prompt grid fully offline against a synthetic corpus.

Demonstrates the whole pipeline without credentials: every grid row is one
``run_experiment`` over the synthetic test split with a mock chat backend,
in its own run directory, and prints its report row. ``gold_echo`` must land
macro F1 = 1.0 on every row, and the script exits 1 when a row does not;
``constant`` shows what an always-Premise baseline scores.

Usage:
    python3 scripts/run_offline_grid.py [--corpus DIR] [--mock gold_echo|constant]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

from atc_icl.cli import run_experiment
from atc_icl.config import BackendConfig, RunConfig
from atc_icl.corpus import load_corpus
from atc_icl.ensemble import IclConfig
from atc_icl.metrics import render_report
from atc_icl.prompting import PromptConfig
from atc_icl.selection import SelectionStrategy
from atc_icl.synth import SPLIT_FILE_NAME, generate_corpus, small_shape

GRID = [
    # (strategy, k, n, info, essay, fts, model)
    (SelectionStrategy.KNN_LEN, 5, 1, True, True, False, "gpt-4"),
    (SelectionStrategy.KNN_LEN, 5, 3, True, True, False, "gpt-4"),
    (SelectionStrategy.KNN_TITLE, 5, 5, False, True, False, "gpt-4"),
    (SelectionStrategy.KNN_TITLE, 5, 3, True, True, False, "gpt-4"),
    (SelectionStrategy.KNN_TITLE, 5, 5, True, True, False, "gpt-4"),
    (SelectionStrategy.KNN_TITLE, 5, 5, True, True, True, "gpt-4"),
    (SelectionStrategy.KNN_TITLE, 5, 5, True, True, False, "gpt-3.5-turbo"),
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
        print(f"corpus: {len(corpus.essays)} essays, {len(corpus.test_essays())} test queries\n")

        imperfect = 0
        for row, (strategy, k, n, info_flag, essay_flag, fts_flag, model) in enumerate(GRID):
            icl = IclConfig(
                strategy=strategy, k=k, n_rounds=n,
                prompt=PromptConfig(include_info=info_flag, include_essay=essay_flag,
                                    include_fts=fts_flag),
                run_seed=args.seed, model_name=model,
            )
            report = run_experiment(RunConfig(
                corpus_dir=corpus_dir, split_file=corpus_dir / SPLIT_FILE_NAME,
                out_dir=Path(tmp) / "out" / f"row{row}",
                icl=icl,
                backend=BackendConfig(chat="mock", mock_mode=args.mock),
            ))
            imperfect += report.macro_f1 < 1.0
            labelled = dataclasses.replace(report, run_label=f"{report.run_label} ({model})")
            print(render_report(labelled).splitlines()[1])

    if args.mock == "gold_echo" and imperfect:
        print(f"error: {imperfect} gold_echo rows scored below macro F1 1.0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
