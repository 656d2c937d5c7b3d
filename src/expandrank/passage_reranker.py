"""Post-retrieval passage reranking with a trainable logistic scorer.

Training instances are the top-``train_depth`` BM25 passages for each training
question, labeled positive iff they contain an answer.
"""

from __future__ import annotations

import json
import logging
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .corpus import PassageStore, contains_answer
from .index import Index, RankedList
from .reranker import read_model_file
from .text import normalize

log = logging.getLogger(__name__)

PR_SCHEMA = "pr-v1"  # [retrieval score, q-overlap, mean idf, length, bias]
PR_DIM = 5
BIAS = PR_DIM - 1


def _sigmoid(t: float) -> float:
    """Logistic function without overflow: exp is only taken of -|t|."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


class _PassageStats:
    """What ``passage_features`` reuses across calls on one index and the
    store it reads passages from: each passage's mean idf over its distinct
    normalized tokens and its token count, filled on first use; the term id
    of each surface token (the int object of ``index.vocab``, so an entry
    costs no new value), so each is analyzed once; and the token set of the
    last question, which all the passages of one reranked list share.

    It holds no reference to its index, which is its key in ``_STATS``.
    """

    def __init__(self, index: Index, store: PassageStore):
        self.store = store
        self._row = index._pid_to_doc
        self._stats = np.full((index.doc_count, 2), np.nan)
        self._tid: dict[str, int | None] = {}  # surface token -> term id
        self._question: str | None = None
        self._question_tokens: frozenset[str] = frozenset()

    def question_tokens(self, question: str) -> frozenset[str]:
        if question != self._question:
            self._question = question
            self._question_tokens = frozenset(normalize(question))
        return self._question_tokens

    def mean_idf_and_length(self, index: Index, pid: str) -> np.ndarray:
        stats = self._stats[self._row[pid]]
        if np.isnan(stats[0]):
            tokens = normalize(self.store.get(pid).text)
            tids = []
            for t in sorted(set(tokens)):  # a fixed summation order
                if t not in self._tid:
                    stemmed = index.analyzer(t)
                    self._tid[t] = (index.vocab.get(stemmed[0]) if stemmed
                                    else None)
                if self._tid[t] is not None:
                    tids.append(self._tid[t])
            idfs = index.idf[tids].tolist()
            stats[:] = (sum(idfs) / len(idfs) if idfs else 0.0, len(tokens))
        return stats


_STATS: weakref.WeakKeyDictionary[Index, _PassageStats] = \
    weakref.WeakKeyDictionary()


def passage_features(index: Index, store: PassageStore, question: str,
                     pid: str, retrieval_score: float) -> np.ndarray:
    """[retrieval score, question-token overlap, mean idf, length, bias].

    Mean idf and length are computed once per passage for an (index, store)
    pair; a call with another store than the last one on ``index`` starts
    that index's cache afresh.
    """
    stats = _STATS.get(index)
    if stats is None or stats.store is not store:
        stats = _STATS[index] = _PassageStats(index, store)
    mean_idf, length = stats.mean_idf_and_length(index, pid)
    qt = stats.question_tokens(question)
    tokens = normalize(store.get(pid).text)
    overlap = len(qt.intersection(tokens)) / len(qt) if qt else 0.0
    return np.array([retrieval_score, overlap, mean_idf, length, 1.0])


@dataclass(frozen=True)
class PRTrainConfig:
    train_depth: int = 10
    epochs: int = 3
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.train_depth < 1:
            raise ValueError("train_depth must be >= 1")


class PassageScorer:
    def __init__(self, weights: np.ndarray, feature_mean: np.ndarray,
                 feature_std: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_std = np.asarray(feature_std, dtype=np.float64)
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite scorer weights")

    def probability(self, f: np.ndarray) -> float:
        z = (np.asarray(f, dtype=np.float64) - self.feature_mean) / self.feature_std
        return _sigmoid(float(self.weights @ z))

    def save(self, path) -> None:
        doc = {
            "format_version": 1,
            "kind": "passage_scorer",
            "schema_id": PR_SCHEMA,
            "weights": self.weights.tolist(),
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PassageScorer":
        doc = read_model_file(path, "passage_scorer", {PR_SCHEMA: PR_DIM})
        return cls(np.array(doc["weights"]), np.array(doc["feature_mean"]),
                   np.array(doc["feature_std"]))


def train_passage_reranker(index: Index, store: PassageStore, qa_train,
                           cfg: PRTrainConfig | None = None) -> PassageScorer:
    cfg = cfg or PRTrainConfig()
    feats, labels = [], []
    for qa in qa_train:
        rl = index.search(qa.question, k=cfg.train_depth, qid=qa.qid)
        if not len(rl):
            log.warning("question %s retrieved no passages; skipped", qa.qid)
            continue
        for pid, score in rl.entries:
            feats.append(passage_features(index, store, qa.question, pid, score))
            labels.append(1.0 if contains_answer(store.get(pid), qa.answers) else 0.0)
    if not feats:
        raise ValueError("no training instances")
    x = np.stack(feats)
    y = np.array(labels)

    # A constant feature column standardizes to 0, so it carries no weight;
    # left at its raw value (passage length on a fixed-length corpus) it
    # would act as a second, badly scaled bias.  The bias column stays 1.
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0
    mean[BIAS], std[BIAS] = 0.0, 1.0
    z = (x - mean) / std

    w = np.zeros(PR_DIM)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for i in order:
            p = _sigmoid(float(w @ z[i]))
            w -= cfg.learning_rate * (p - y[i]) * z[i]
    return PassageScorer(w, mean, std)


def rerank_passages(scorer: PassageScorer, index: Index, store: PassageStore,
                    question: str, rl: RankedList, depth: int) -> RankedList:
    """Reorder the first ``depth`` entries by descending scorer probability.

    Ties keep original rank order; entries past the depth keep their place
    and score.  A reranked entry's score is its probability plus the score
    of the first entry past the depth (0 when there is none), so scores
    never increase down the list.
    """
    depth = min(depth, len(rl))
    pids, scores = rl.pids(), rl.scores.tolist()
    probs = [
        scorer.probability(passage_features(index, store, question, pid, score))
        for pid, score in zip(pids[:depth], scores)
    ]
    floor = scores[depth] if depth < len(scores) else 0.0
    order = sorted(range(depth), key=lambda i: (-probs[i], i))
    reranked = rl.scores.copy()
    reranked[:depth] = [floor + probs[i] for i in order]
    pids[:depth] = [pids[i] for i in order]
    return RankedList.from_columns(rl.qid, pids, reranked, f"{rl.tag}+pr")
