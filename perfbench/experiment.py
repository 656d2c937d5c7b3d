"""The EAR pipeline as the CLI runs it, timed stage by stage.

Setup is ``index``: load the corpus, build, save and load the index.  A pass
is everything after it: ``make-train``, ``train`` RI and RD, ``train-pr``,
``retrieve`` with each of the seven strategy variants, and ``eval`` of each
run file.  Every stage calls the public function its CLI subcommand calls,
with the CLI defaults, and reads the files the previous stage wrote.  Library
functions are looked up through their modules at call time, so the tracer's
patches (see ``tracing.py``) take effect.

Times are scaled to a reference machine speed (see ``speed.py``).

Failures are counted, never dropped: each stage and each question is one
attempted operation.  ``run_strategy`` is called per question, not through
``run_dataset``, which logs failures and leaves the question out.  A strategy
whose model failed to train still runs, with an untrained zero-weight model
of the same kind, so its latency stays measured; all its questions count as
failed.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from expandrank import (corpus, evalbench, expansion, index, passage_reranker,
                        pipeline, reranker, text)

import speed

BLOCK = 10  # questions a variant runs before the next variant's turn
SETUP_PROBES = 8  # set-up is one long span with no other spans near it

# variant -> (StrategySpec kind, expansion model it needs, passage reranker)
VARIANTS = {
    "bm25": ("bm25", None, False),
    "greedy": ("greedy", None, False),
    "concat": ("concat", None, False),
    "oracle": ("oracle", None, False),
    "ear_ri": ("ear_ri", "RI", False),
    "ear_rd": ("ear_rd", "RD", False),
    "ear_rd_pr": ("ear_rd", "RD", True),
}


@dataclass
class Ledger:
    """Attempted and failed operations, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1


def _reason(stage: str, exc: BaseException) -> str:
    return f"{stage}: {type(exc).__name__}: {exc}"


@dataclass
class PassResult:
    experiment_s: float
    raw_experiment_s: float
    make_train_s: float
    train_s: float
    q_ms: dict[str, list[float]]
    runs: dict[str, dict]
    accuracy: dict[str, dict[int, float]]
    digests: dict[str, str]
    untrained: list[str]


@contextmanager
def ticking(clock: speed.Clock):
    """Let ``clock`` probe from inside long library calls.  Analysis, answer
    matching and featurizing all call ``text.normalize``, so a wrapper on
    each module's binding of it gives the clock a chance to every few
    microseconds of library work."""
    original = text.normalize

    def normalize(raw):
        clock.tick()
        return original(raw)

    owners = [m for m in (text, corpus, expansion, reranker, passage_reranker)
              if vars(m).get("normalize") is original]
    for m in owners:
        m.normalize = normalize
    try:
        yield
    finally:
        for m in owners:
            m.normalize = original


def setup(corpus_path: Path, index_path: Path, inner_probes: bool = True):
    """``index`` stage plus the load every later stage starts with; returns
    (scaled seconds, raw seconds, store, index)."""
    clock = speed.Clock()
    with clock.span(probes=SETUP_PROBES), \
            (ticking(clock) if inner_probes else nullcontext()):
        store = corpus.load_corpus(corpus_path)
        built = index.build_index(store, index.Bm25Params())
        built.save(index_path)
        idx = index.Index.load(index_path)
    spans = clock.scaled()
    return (sum(s for _, s, _ in spans), sum(r for _, _, r in spans), store,
            idx)


def _untrained_model(variant: str):
    schema = reranker.RI_SCHEMA if variant == "RI" else reranker.RD_SCHEMA
    dim = reranker.SCHEMA_DIMS[schema]
    return reranker.ScorerModel(variant, schema, np.zeros(dim), np.zeros(dim),
                                np.ones(dim))


def _untrained_scorer():
    dim = passage_reranker.PR_DIM
    return passage_reranker.PassageScorer(np.zeros(dim), np.zeros(dim),
                                          np.ones(dim))


def run_pass(store, idx, paths: dict[str, Path], work: Path, ledger: Ledger,
             inner_probes: bool = True) -> PassResult:
    """One pass.  ``inner_probes=False`` keeps the clock's probes out of
    library calls, for a traced pass whose spans must not contain them."""
    files = {name: work / name for name in
             ("train.jsonl", "RI.json", "RD.json", "pr.json")}
    for name in VARIANTS:
        files[name] = work / f"run-{name}.trec"
    # a stage that fails must not leave a later one a stale file
    for f in files.values():
        f.unlink(missing_ok=True)

    clock = speed.Clock()

    def stage(name, fn) -> None:
        ledger.attempt()
        try:
            fn()
        except Exception as exc:  # counted, reported, and the pass goes on
            ledger.fail(_reason(name, exc))

    with clock.span():
        train_qs = corpus.load_questions(paths["train"])
        test_qs = corpus.load_questions(paths["test"], require_answers=False)
        train_cands = expansion.load_expansions(
            paths["train_expansions"], known_qids={qa.qid for qa in train_qs})
        test_cands = expansion.load_expansions(
            paths["test_expansions"], known_qids={qa.qid for qa in test_qs})

    def make_train():
        with clock.span("make_train"):
            examples = expansion.build_training_set(
                store, idx, train_qs, expansion.ConstructionConfig(),
                lambda qa, fold: train_cands[qa.qid])
        with clock.span():
            expansion.save_training_set(examples, files["train.jsonl"])

    def train(variant):
        with clock.span():
            examples = expansion.load_training_set(files["train.jsonl"])
        with clock.span("train"):
            model = reranker.train(examples, reranker.TrainConfig(), variant,
                                   reranker.Featurizer(idx, store))
        with clock.span():
            model.save(files[f"{variant}.json"])

    def train_pr():
        with clock.span("train"):
            scorer = passage_reranker.train_passage_reranker(
                idx, store, train_qs, passage_reranker.PRTrainConfig())
        with clock.span():
            scorer.save(files["pr.json"])

    with ticking(clock) if inner_probes else nullcontext():
        stage("make-train", make_train)
        stage("train RI", lambda: train("RI"))
        stage("train RD", lambda: train("RD"))
        stage("train-pr", train_pr)

    loaded = {}  # variant -> (spec, model, featurizer, scorer, missing)
    untrained: list[str] = []
    for name, (kind, variant, with_pr) in VARIANTS.items():
        model = featurizer = scorer = None
        missing = []
        with clock.span():
            if variant:
                featurizer = reranker.Featurizer(idx, store)
                if files[f"{variant}.json"].exists():
                    model = reranker.ScorerModel.load(files[f"{variant}.json"])
                else:
                    model = _untrained_model(variant)
                    missing.append(f"train {variant}")
            if with_pr:
                if files["pr.json"].exists():
                    scorer = passage_reranker.PassageScorer.load(
                        files["pr.json"])
                else:
                    scorer = _untrained_scorer()
                    missing.append("train-pr")
        if missing:
            untrained.append(name)
        loaded[name] = (pipeline.StrategySpec(kind=kind), model, featurizer,
                        scorer, " and ".join(missing))

    # The variants take turns over blocks of questions, so that each one's
    # latencies are sampled across the whole retrieve phase rather than in
    # one stretch of a machine whose speed changes from second to second.
    runs: dict[str, dict] = {name: {} for name in VARIANTS}
    for first in range(0, len(test_qs), BLOCK):
        for name, (spec, model, featurizer, scorer, missing) in loaded.items():
            for qa in test_qs[first:first + BLOCK]:
                cands = None if spec.kind == "bm25" else test_cands.get(qa.qid)
                ledger.attempt()
                t = time.perf_counter()
                try:
                    rl = pipeline.run_strategy(spec, idx, store, qa, cands,
                                               model, featurizer, scorer)
                except Exception as exc:
                    clock.record(t, time.perf_counter())
                    ledger.fail(_reason(f"retrieve {name}", exc))
                    continue
                clock.record(t, time.perf_counter(), ("question", name))
                runs[name][qa.qid] = rl
                if missing:
                    ledger.fail(f"retrieve {name}: depends on failed "
                                f"{missing}")

    for name in VARIANTS:
        def write():
            with clock.span():
                evalbench.write_run(runs[name], files[name])

        stage(f"retrieve {name}", write)

    accuracy: dict[str, dict[int, float]] = {}
    for name in VARIANTS:
        def evaluate():
            with clock.span():
                report = evalbench.topk_accuracy(
                    evalbench.read_run(files[name]), test_qs, store,
                    ks=evalbench.DEFAULT_KS, tag=name)
            accuracy[name] = report.accuracies

        stage(f"eval {name}", evaluate)

    spans = clock.scaled()
    q_ms = {name: [] for name in VARIANTS}
    for label, seconds, _ in spans:
        if isinstance(label, tuple):
            q_ms[label[1]].append(seconds * 1e3)

    def total(wanted=None):
        return sum(s for label, s, _ in spans
                   if wanted is None or label == wanted)

    digests = {name: hashlib.sha256(files[name].read_bytes()).hexdigest()
               for name in VARIANTS if files[name].exists()}
    return PassResult(experiment_s=total(),
                      raw_experiment_s=sum(raw for _, _, raw in spans),
                      make_train_s=total("make_train"),
                      train_s=total("train"), q_ms=q_ms, runs=runs,
                      accuracy=accuracy, digests=digests, untrained=untrained)
