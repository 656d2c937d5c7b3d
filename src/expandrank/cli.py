"""Command-line entry point wiring the modules into reproducible experiments.

Exit codes: 0 success, 2 usage or validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections import Counter

from . import evalbench, expansion, pipeline
from .corpus import CorpusError, load_corpus, load_questions
from .evalbench import DEFAULT_KS
from .index import Bm25Params, Index, build_index
from .passage_reranker import (NothingRetrieved, PassageScorer, PRTrainConfig,
                               train_passage_reranker)
from .pipeline import STRATEGIES, StrategySpec
from .reranker import Featurizer, ScorerModel, TrainConfig, train


class UsageError(Exception):
    pass


def _print_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config:", json.dumps(cfg, sort_keys=True, default=str))


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _config(cls, **fields):
    """``cls(**fields)`` from flag values; a value it rejects is a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _positive_ints(name: str, text: str) -> list[int]:
    """The values of a comma-separated list flag, each an integer >= 1 and
    none repeated."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{name} must be integers, got {text!r}") from None
    if min(values) < 1:
        raise UsageError(f"{name} must be >= 1, got {min(values)}")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"{name} lists {repeated[0]} more than once")
    return values


def _at_least_one(**flags) -> None:
    """Integer flag values that must each be >= 1."""
    for name, value in flags.items():
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")


def _bm25_params(args) -> Bm25Params:
    return _config(Bm25Params, k1=args.k1, b=args.b,
                   stemming=not args.no_stemming,
                   stopwords=not args.no_stopwords,
                   index_titles=args.index_titles)


def _corpus_and_index(args):
    """Corpus and index named by ``--corpus/--index``.  An index passage
    the corpus lacks is a usage error."""
    store = load_corpus(_require_file(args.corpus, "corpus"))
    index = Index.load(_require_file(args.index, "index"))
    missing = next((pid for pid in index.pids if pid not in store), None)
    if missing is not None:
        raise UsageError(f"index {args.index} names passage {missing!r}, "
                         f"which corpus {args.corpus} lacks")
    return store, index


def _load_inputs(args, require_answers: bool = True):
    """Corpus, index and questions named by ``--corpus/--index/--questions``."""
    return (*_corpus_and_index(args),
            load_questions(_require_file(args.questions, "questions"),
                           require_answers=require_answers))


def _checked_model(args, spec: StrategySpec, questions) -> ScorerModel | None:
    """The expansion scorer ``--model`` names if ``spec``'s strategy runs
    one, else None.  Questions or a model that do not give the strategy
    what it reads are a usage error, raised before any candidate is read."""
    model = None
    if spec.needs.scorer and args.model:
        model = ScorerModel.load(_require_file(args.model, "model"))
    try:
        pipeline.check_strategy(spec, questions, model)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return model


def _load_candidates(args, index, store, questions):
    if args.expansions:
        return expansion.load_expansions(
            _require_file(args.expansions, "expansions file"),
            known_qids={qa.qid for qa in questions})
    return {
        qa.qid: expansion.sample_expansions_stub(
            qa.question, args.n_samples, args.seed, index, store
        )
        for qa in questions
    }


# -- subcommands ------------------------------------------------------------

def cmd_index(args) -> int:
    params = _bm25_params(args)
    store = load_corpus(_require_file(args.corpus, "corpus"))
    t0 = time.perf_counter()
    index = build_index(store, params)
    build_s = time.perf_counter() - t0
    index.save(args.out)
    print(f"documents: {index.doc_count}")
    print(f"build_seconds: {build_s:.3f}")
    print(f"index_bytes: {os.path.getsize(args.out)}")
    return 0


def cmd_make_train(args) -> int:
    cfg = _config(expansion.ConstructionConfig, k_retrieve=args.k_retrieve,
                  folds=args.folds, seed=args.seed)
    _at_least_one(n_samples=args.n_samples)
    store, index, questions = _load_inputs(args)
    if len(questions) < cfg.folds:
        raise UsageError(
            f"{len(questions)} questions cannot fill {cfg.folds} folds"
        )
    loaded = _load_candidates(args, index, store, questions)
    missing = next((qa.qid for qa in questions if qa.qid not in loaded), None)
    if missing is not None:
        raise CorpusError(f"{args.expansions}: no candidates for qid "
                          f"{missing} of {args.questions}")
    examples = expansion.build_training_set(store, index, questions, cfg,
                                            lambda qa, fold: loaded[qa.qid])
    expansion.save_training_set(examples, args.out)
    hist = Counter(r for ex in examples for r in ex.labels)
    print("rank histogram (r: count):")
    for r in sorted(hist):
        print(f"  {r}: {hist[r]}")
    print(f"examples: {len(examples)}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(TrainConfig, alpha=args.alpha, epochs=args.epochs,
                  group_batch=args.group_batch,
                  learning_rate=args.learning_rate, seed=args.seed)
    path = _require_file(args.train, "training set")
    store, index = _corpus_and_index(args)
    examples = expansion.load_training_set(path, known_pids=store)
    model = train(examples, cfg, args.variant, Featurizer(index, store))
    model.save(args.out)
    print(f"trained {args.variant} model on {len(examples)} questions -> {args.out}")
    return 0


def cmd_train_pr(args) -> int:
    cfg = _config(PRTrainConfig, train_depth=args.train_depth,
                  epochs=args.epochs, learning_rate=args.learning_rate,
                  seed=args.seed)
    store, index, questions = _load_inputs(args)
    try:
        scorer = train_passage_reranker(index, store, questions, cfg)
    except NothingRetrieved:
        raise ValueError(f"no training instances: none of the "
                         f"{len(questions)} questions of {args.questions} "
                         f"retrieved a passage from {args.index}") from None
    scorer.save(args.out)
    print(f"trained passage scorer on {len(questions)} questions -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    spec = _config(StrategySpec, kind=args.strategy, cap_n=args.cap_n,
                   k_retrieve=args.k, pr_depth=args.pr_depth)
    _at_least_one(n_samples=args.n_samples)
    store, index, questions = _load_inputs(args, require_answers=False)
    model, scorer = _checked_model(args, spec, questions), None
    if args.pr_model:
        scorer = PassageScorer.load(_require_file(args.pr_model, "pr model"))
    candidates = (_load_candidates(args, index, store, questions)
                  if spec.needs.candidates else {})
    runs = pipeline.run_dataset(spec, index, store, questions, candidates,
                                model, Featurizer(index, store), scorer)
    evalbench.write_run(runs, args.out,
                        spec.kind if scorer is None else f"{spec.kind}+pr")
    print(f"wrote {sum(len(rl) for rl in runs.values())} entries for "
          f"{len(runs)} questions -> {args.out}")
    # qids are unique (see load_questions); run_dataset logs the failures
    return 1 if len(runs) < len(questions) else 0


def cmd_eval(args) -> int:
    ks = tuple(_positive_ints("ks", args.ks))
    store = load_corpus(_require_file(args.corpus, "corpus"))
    questions = load_questions(_require_file(args.questions, "questions"))
    runs = evalbench.read_run(_require_file(args.run, "run file"))
    asked = {qa.qid for qa in questions}
    unasked = next((qid for qid in runs if qid not in asked), None)
    if unasked is not None:
        raise ValueError(f"{args.run}: qid {unasked} is not in "
                         f"{args.questions}")
    for qid, rl in runs.items():
        # every pid, not only those the answer matcher reaches
        missing = next((pid for pid in rl.pids() if pid not in store), None)
        if missing is not None:
            raise CorpusError(f"{args.run}: qid {qid} names passage "
                              f"{missing!r}, which the corpus lacks")
    report = evalbench.topk_accuracy(runs, questions, store, ks=ks,
                                     tag=os.path.basename(args.run))
    unlisted = sum(qa.qid not in runs for qa in questions)
    if unlisted:
        print(f"warning: {unlisted}/{len(questions)} questions have no list "
              f"in {args.run}; each counts as a miss", file=sys.stderr)
    print(report.format_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_bench(args) -> int:
    spec = _config(StrategySpec, kind=args.strategy, k_retrieve=args.k)
    params = _bm25_params(args)
    _at_least_one(n_samples=args.n_samples, repetitions=args.repetitions)
    store = load_corpus(_require_file(args.corpus, "corpus"))
    questions = load_questions(_require_file(args.questions, "questions"),
                               require_answers=False)
    model = _checked_model(args, spec, questions)
    report = evalbench.bench_latency(store, params, spec, questions,
                                     repetitions=args.repetitions, model=model,
                                     n_samples=args.n_samples,
                                     stub_seed=args.seed)
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    return 0


def cmd_ablate(args) -> int:
    spec = _config(StrategySpec, kind=args.strategy, k_retrieve=args.k)
    ns = sorted(_positive_ints("cap_n", args.ns))  # each a spec's cap_n
    _at_least_one(n_samples=args.n_samples)
    store, index, questions = _load_inputs(args)
    model = _checked_model(args, spec, questions)
    candidates = (_load_candidates(args, index, store, questions)
                  if spec.needs.candidates else {})
    reports = evalbench.ablate_candidate_size(spec, index, store, questions,
                                              candidates, ns, model,
                                              Featurizer(index, store))
    csv_text = evalbench.report_csv(reports)
    print(csv_text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return 0


def cmd_fuse(args) -> int:
    _at_least_one(k=args.k)
    loaded = [evalbench.read_run(_require_file(p, "run file"))
              for p in args.runs]
    qids = dict.fromkeys(qid for runs in loaded for qid in runs)  # first seen
    fused = {qid: pipeline.fuse([runs[qid] for runs in loaded if qid in runs],
                                args.k) for qid in qids}
    evalbench.write_run(fused, args.out, "fusion")
    print(f"fused {len(args.runs)} runs over {len(fused)} questions -> {args.out}")
    return 0


# -- parser -----------------------------------------------------------------

def _add_bm25_flags(p):
    p.add_argument("--k1", type=float, default=0.9, help="BM25 k1 (default 0.9)")
    p.add_argument("--b", type=float, default=0.4, help="BM25 b (default 0.4)")
    p.add_argument("--no-stemming", action="store_true",
                   help="disable Porter stemming")
    p.add_argument("--no-stopwords", action="store_true",
                   help="disable stopword removal")
    p.add_argument("--index-titles", action="store_true",
                   help="concatenate titles into the indexed body")


def _add_candidate_flags(p):
    p.add_argument("--expansions", default=None,
                   help="expansions JSONL {qid, generator_tag, text}; "
                        "stub sampler is used when omitted")
    p.add_argument("--n-samples", type=int, default=50,
                   help="stub candidates per question (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expandrank",
        description="BM25 retrieval with reranked query expansions",
    )
    parser.add_argument("--log-level", type=str.upper, default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="least severe log record written to stderr "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_bm25_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("make-train", help="build the rank-labeled training set")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    _add_candidate_flags(p)
    p.add_argument("--k-retrieve", type=int, default=100,
                   help="labeling depth K; a miss is labeled K + 1")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_train)

    p = sub.add_parser("train", help="train an expansion scorer")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=("RI", "RD"), default="RD")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=None,
                   help="default 2 for RI, 3 for RD")
    p.add_argument("--group-batch", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-pr", help="train the passage reranker")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-depth", type=int, default=10)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_pr)

    p = sub.add_parser("retrieve", help="run a retrieval strategy, write TREC run")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="bm25")
    _add_candidate_flags(p)
    p.add_argument("--model", default=None)
    p.add_argument("--pr-model", default=None)
    p.add_argument("--pr-depth", type=int, default=100)
    p.add_argument("--cap-n", type=int, default=None)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="top-k accuracy of a TREC run")
    p.add_argument("--run", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_KS))
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="per-stage latency benchmark")
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="bm25")
    p.add_argument("--model", default=None)
    p.add_argument("--n-samples", type=int, default=50)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_bm25_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="accuracy vs candidate cap N")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="oracle")
    p.add_argument("--ns", default="1,5,10,20,30,50",
                   help="comma-separated candidate caps")
    p.add_argument("--model", default=None)
    p.add_argument("--k", type=int, default=100)
    _add_candidate_flags(p)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fuse", help="round-robin fuse TREC runs")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run files in fusion order")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    return parser


def _setup_logging(level: str) -> None:
    """Write the package's log records at ``level`` and above to stderr.

    ``main`` owns the package logger's handlers: it replaces them on each
    call, so a second run in one process prints each record once, to the
    ``sys.stderr`` of its own run.
    """
    logger = logging.getLogger(__package__)
    for handler in logger.handlers[:]:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)
    _print_config(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
