"""Post-retrieval passage reranking with a trainable logistic scorer.

Training instances are the top-``train_depth`` BM25 passages for each training
question, labeled positive iff they contain an answer.  A passage's features,
bar its retrieval score, are statistics of the ``Index``, so reranking a list
reads posting lists and per-document arrays, never passage text.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import AnswerMatcher, PassageStore
from .index import Index, RankedList
from .reranker import LinearModel, standardizer
from .text import normalize

log = logging.getLogger(__name__)

PR_SCHEMA = "pr-v3"  # [retrieval score, q-overlap, mean idf, length, bias]
PR_DIM = 5
BIAS = PR_DIM - 1


class NothingRetrieved(ValueError):
    """No training question retrieved a passage: nothing to train on."""


def _sigmoid(t: float) -> float:
    """Logistic function without overflow: exp is only taken of -|t|."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def passage_features(index: Index, question: str,
                     rl: RankedList) -> np.ndarray:
    """One row per entry of the ranked list ``rl``, a passage with its
    retrieval score: [retrieval score, question-term overlap, mean idf,
    length, bias].

    Every column but the score is a statistic of the index, gathered by
    the passages' internal doc ids (``Index.docs_of``: a search result's
    own rows, else its pids looked up): the overlap is
    ``Index.term_overlap``, the share of the question's distinct terms
    whose posting list holds the passage; the mean idf is
    ``Index.mean_idf``, over the passage's distinct indexed terms; the
    length is ``Index.doc_lengths``, its indexed term count.  Titles count
    when the index holds them.
    """
    rows = index.docs_of(rl)
    x = np.empty((len(rl), PR_DIM), dtype=np.float64)
    x[:, 0] = rl.scores
    x[:, 1] = index.term_overlap(normalize(question), rows)
    x[:, 2] = index.mean_idf[rows]
    x[:, 3] = index.doc_lengths[rows]
    x[:, BIAS] = 1.0
    return x


@dataclass(frozen=True)
class PRTrainConfig:
    train_depth: int = 10
    epochs: int = 3
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.train_depth < 1:
            raise ValueError(f"train_depth must be >= 1, got "
                             f"{self.train_depth}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


class PassageScorer(LinearModel):
    """The passage reranker's logistic scorer, over schema ``PR_SCHEMA``."""

    kind = "passage_scorer"
    schemas = {PR_SCHEMA: (None, PR_DIM)}

    def __init__(self, weights: np.ndarray, feature_mean: np.ndarray,
                 feature_std: np.ndarray):
        super().__init__(None, PR_SCHEMA, weights, feature_mean, feature_std)

    def probability(self, features: np.ndarray) -> np.ndarray:
        """One probability per row of a reranked list's feature matrix."""
        return np.array([_sigmoid(t) for t in self.linear(features).tolist()])


def train_passage_reranker(index: Index, store: PassageStore, qa_train,
                           cfg: PRTrainConfig | None = None) -> PassageScorer:
    cfg = cfg or PRTrainConfig()
    feats, labels = [], []
    skipped = 0
    for qa in qa_train:
        matcher = AnswerMatcher(qa.answers, qa.qid, index)
        rl = index.search(qa.question, k=cfg.train_depth)
        if not len(rl):
            log.warning("question %s retrieved no passages; skipped", qa.qid)
            skipped += 1
            continue
        feats.append(passage_features(index, qa.question, rl))
        labels += [float(matcher(store.get(p))) for p in rl.pids()]
    if not feats:
        raise NothingRetrieved(f"no training instances: none of the "
                               f"{skipped} questions retrieved a "
                               f"passage")
    x = np.concatenate(feats)
    y = np.array(labels)

    # A constant column (passage length on a fixed-length corpus) carries no
    # weight; left at its raw value it would act as a second, badly scaled
    # bias.  The bias column, constant too, is the one kept at 1.
    mean, std = standardizer(x)
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


def rerank_passages(scorer: PassageScorer, index: Index, question: str,
                    rl: RankedList, depth: int) -> RankedList:
    """Reorder the first ``depth`` entries by descending scorer probability.

    Ties keep original rank order; entries past the depth keep their place
    and score.  A reranked entry's score is its probability plus the score
    of the first entry past the depth (0 when there is none), so scores
    never increase down the list.  The list names no run: ``expandrank
    retrieve`` writes a reranked run as its strategy plus "+pr".
    """
    depth = min(depth, len(rl))
    probs = scorer.probability(passage_features(index, question,
                                                rl.head(depth)))
    floor = float(rl.scores[depth]) if depth < len(rl) else 0.0
    order = np.argsort(-probs, kind="stable")
    reranked = rl.scores.copy()
    reranked[:depth] = floor + probs[order]
    return rl.reorder(order, reranked)
