"""Post-retrieval passage reranking with a trainable logistic scorer.

Training instances are the top-``train_depth`` BM25 passages for each training
question, labeled positive iff they contain an answer.
"""

from __future__ import annotations

import json
import logging
import math
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


def passage_features(index: Index, store: PassageStore, question: str,
                     pid: str, retrieval_score: float) -> np.ndarray:
    tokens = normalize(store.get(pid).text)
    qt = set(normalize(question))
    overlap = len(qt & set(tokens)) / len(qt) if qt else 0.0
    idfs = []
    for t in set(tokens):
        stemmed = index.analyzer(t)
        if stemmed and stemmed[0] in index.vocab:
            idfs.append(float(index.idf[index.vocab[stemmed[0]]]))
    mean_idf = sum(idfs) / len(idfs) if idfs else 0.0
    return np.array([retrieval_score, overlap, mean_idf, float(len(tokens)), 1.0])


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
        if not rl.entries:
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
    depth = min(depth, len(rl.entries))
    head, tail = rl.entries[:depth], rl.entries[depth:]
    probs = [
        scorer.probability(passage_features(index, store, question, pid, score))
        for pid, score in head
    ]
    floor = tail[0][1] if tail else 0.0
    order = sorted(range(depth), key=lambda i: (-probs[i], i))
    reordered = [(head[i][0], floor + probs[i]) for i in order]
    return RankedList(qid=rl.qid, entries=reordered + tail,
                      tag=f"{rl.tag}+pr")
