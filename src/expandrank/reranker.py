"""Expansion scoring models: pairwise hinge ranking loss, RI and RD variants.

Polarity is fixed throughout: a LOWER score means a better expansion, and
selection is argmin.  The loss for one question with ranks r and scores s is

    sum over pairs (i, j) with r_i < r_j of  max(0, s_i - s_j + (r_j - r_i) * alpha)

so training pushes expansions with better (smaller) ranks toward smaller
scores, with a rank-gap-proportional margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import PassageStore
from .expansion import (CandidateSet, ExpansionCandidate, RankLabel,
                        TrainingExample, finite_number, search_candidates)
from .index import Index, RankedList
from .text import normalize

RI_SCHEMA = "ri-v1"   # 9 features
RD_SCHEMA = "rd-v1"   # RI block + 5 retrieval-dependent features
SCHEMA_DIMS = {RI_SCHEMA: 9, RD_SCHEMA: 14}
VARIANT_SCHEMA = {"RI": RI_SCHEMA, "RD": RD_SCHEMA}


def _char3(tokens) -> set[str]:
    grams = set()
    for t in tokens:
        if len(t) < 3:
            grams.add(t)
        else:
            grams.update(t[i : i + 3] for i in range(len(t) - 2))
    return grams


class Featurizer:
    """Builds feature vectors for (question, expansion[, top-2 retrieval])."""

    def __init__(self, index: Index, store: PassageStore):
        self.index = index
        self.store = store
        n = index.doc_count
        self._unseen_idf = math.log(1.0 + (n + 0.5) / 0.5)

    def _idf(self, token: str) -> float:
        stemmed = self.index.analyzer(token)
        if not stemmed:
            return 0.0
        tid = self.index.vocab.get(stemmed[0])
        return self._unseen_idf if tid is None else float(self.index.idf[tid])

    def ri(self, question: str, expansion: str) -> np.ndarray:
        qt = set(normalize(question))
        et = normalize(expansion)
        et_set = set(et)
        overlap = len(et_set & qt) / len(et_set) if et_set else 0.0
        novel = sorted(et_set - qt)
        novel_idfs = [self._idf(t) for t in novel]
        qg, eg = _char3(normalize(question)), _char3(et)
        union = len(qg | eg)
        return np.array([
            float(len(et)),
            overlap,
            1.0 - overlap if et_set else 0.0,
            max(novel_idfs) if novel_idfs else 0.0,
            sum(novel_idfs) / len(novel_idfs) if novel_idfs else 0.0,
            float(sum(t.isdigit() for t in et)),
            float(sum(w[:1].isupper() for w in expansion.split())),
            len(qg & eg) / union if union else 0.0,
            1.0,
        ])

    def rd(self, question: str, expansion: str, rl: RankedList) -> np.ndarray:
        base = self.ri(question, expansion)
        if not len(rl):
            return np.concatenate([base, np.zeros(5)])
        scores = rl.scores[:2].tolist()
        top_score = scores[0]
        d_tokens = normalize(self.store.get(rl.pids()[0]).text)
        dt = set(d_tokens)
        qt = set(normalize(question))
        et_set = set(normalize(expansion))
        novel = et_set - qt
        novel_overlap = len(novel & dt) / len(novel) if novel else 0.0
        q_overlap = len(qt & dt) / len(qt) if qt else 0.0
        if len(scores) > 1:
            margin_pos = 1.0 if top_score - scores[1] > 0 else 0.0
        else:
            margin_pos = 1.0
        return np.concatenate([base, [
            top_score,
            novel_overlap,
            q_overlap,
            float(len(d_tokens)),
            margin_pos,
        ]])

    def features(self, variant: str, question: str, cand: ExpansionCandidate,
                 rl: RankedList | None = None) -> np.ndarray:
        """RD needs ``rl``, the expanded query's top-2 retrieval."""
        if variant == "RI":
            return self.ri(question, cand.text)
        if rl is None:
            raise ValueError("RD features need the expanded query's retrieval")
        return self.rd(question, cand.text, rl)


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    epochs: int | None = None  # None -> 2 for RI, 3 for RD
    group_batch: int = 8
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.group_batch < 1:
            raise ValueError(f"group_batch must be >= 1, got {self.group_batch}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")

    def epochs_for(self, variant: str) -> int:
        if self.epochs is not None:
            return self.epochs
        return 2 if variant == "RI" else 3


MODEL_FORMAT_VERSION = 1


def write_model_file(path, kind: str, schema_id: str, weights: np.ndarray,
                     feature_mean: np.ndarray, feature_std: np.ndarray,
                     **fields) -> None:
    """Write the model file that ``read_model_file`` reads: a linear model of
    ``kind`` over schema ``schema_id``, plus any kind-specific ``fields``.
    Keys are sorted, so equal models give equal bytes."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "schema_id": schema_id,
        "weights": weights.tolist(),
        "feature_mean": feature_mean.tolist(),
        "feature_std": feature_std.tolist(),
        **fields,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_model_file(path, kind: str, dims: dict[str, int]) -> dict:
    """A model file of ``kind`` whose schema is one of ``dims`` (schema id ->
    feature count), with weights and standardization checked against it.

    Raises ValueError naming the path and the field that is wrong.
    """
    def fail(field: str, why: str):
        raise ValueError(f"{path}: {field}: {why}")

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            fail("json", str(exc))
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        fail("kind", f"not a {kind} model")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        fail("format_version", f"{doc.get('format_version')!r} is not "
                               f"{MODEL_FORMAT_VERSION}")
    schema = doc.get("schema_id")
    if schema not in dims:
        fail("schema_id", f"unknown schema {schema!r}")
    for field in ("weights", "feature_mean", "feature_std"):
        values = doc.get(field)
        if not isinstance(values, list) or len(values) != dims[schema]:
            fail(field, f"expected {dims[schema]} values for {schema}")
        if not all(finite_number(v) for v in values):
            fail(field, "values must be finite numbers")
    if min(doc["feature_std"]) <= 0:
        fail("feature_std", "values must be positive")
    return doc


class ScorerModel:
    def __init__(self, variant: str, schema_id: str, weights: np.ndarray,
                 feature_mean: np.ndarray, feature_std: np.ndarray,
                 generator_tag: str = "stub"):
        if variant not in VARIANT_SCHEMA:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.schema_id = schema_id
        self.weights = np.asarray(weights, dtype=np.float64)
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_std = np.asarray(feature_std, dtype=np.float64)
        self.generator_tag = generator_tag
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite model weights")

    def score(self, f: np.ndarray) -> float:
        if f.shape[0] != SCHEMA_DIMS[self.schema_id]:
            raise ValueError(
                f"feature length {f.shape[0]} does not match schema "
                f"{self.schema_id}"
            )
        z = (np.asarray(f, dtype=np.float64) - self.feature_mean) / self.feature_std
        return float(self.weights @ z)

    def save(self, path) -> None:
        write_model_file(path, "expansion_scorer", self.schema_id,
                         self.weights, self.feature_mean, self.feature_std,
                         variant=self.variant,
                         generator_tag=self.generator_tag)

    @classmethod
    def load(cls, path) -> "ScorerModel":
        doc = read_model_file(path, "expansion_scorer", SCHEMA_DIMS)
        variant = doc.get("variant")
        if VARIANT_SCHEMA.get(variant) != doc["schema_id"]:
            raise ValueError(f"{path}: variant: {variant!r} does not match "
                             f"schema {doc['schema_id']}")
        # files from before hidden layers were removed carry "hidden": null
        if doc.get("hidden") is not None:
            raise ValueError(f"{path}: hidden: hidden layers are not supported")
        return cls(variant, doc["schema_id"], np.array(doc["weights"]),
                   np.array(doc["feature_mean"]), np.array(doc["feature_std"]),
                   generator_tag=doc.get("generator_tag", "stub"))


def rank_loss(scores, labels, alpha: float) -> tuple[float, np.ndarray]:
    """Pairwise hinge loss and its (sub)gradient with respect to the scores.

    Subgradient at the hinge kink is 0.
    """
    s = np.asarray(scores, dtype=np.float64)
    ranks = np.array([l.r for l in labels], dtype=np.float64)
    if s.shape[0] != ranks.shape[0]:
        raise ValueError("scores and labels must align")
    gap = ranks[None, :] - ranks[:, None]  # [i, j] = r_j - r_i
    hinge = s[:, None] - s[None, :] + gap * alpha
    active = (gap > 0) & (hinge > 0)
    grad = (active.sum(axis=1) - active.sum(axis=0)).astype(np.float64)
    return float(hinge[active].sum()), grad


def _standardizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = std < 1e-12
    mean[constant] = 0.0
    std[constant] = 1.0
    return mean, std


def example_features(featurizer: Featurizer, variant: str,
                     ex: TrainingExample) -> np.ndarray:
    """Feature rows of one training question's candidates.  RD rows read the
    top-2 entries stored with the example, so no search is issued."""
    return np.stack([
        featurizer.features(variant, ex.question, cand,
                            RankedList(qid=ex.qid, entries=list(top)))
        for cand, top in zip(ex.candidates.candidates, ex.top2)
    ])


def train(examples, cfg: TrainConfig, variant: str,
          featurizer: Featurizer) -> ScorerModel:
    """Mini-batch subgradient descent on the pairwise ranking loss.

    A batch is ``group_batch`` whole questions; each contributes its complete
    candidate group to the loss.
    """
    if variant not in VARIANT_SCHEMA:
        raise ValueError(f"unknown variant {variant!r}")
    schema = VARIANT_SCHEMA[variant]
    groups = []
    for ex in examples:
        if len(ex.candidates) < 2:
            raise ValueError(f"question {ex.qid} has fewer than 2 candidates")
        groups.append((example_features(featurizer, variant, ex), ex.labels))

    all_feats = np.concatenate([f for f, _ in groups])
    mean, std = _standardizer(all_feats)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(SCHEMA_DIMS[schema])

    epochs = cfg.epochs_for(variant)
    for epoch in range(epochs):
        order = rng.permutation(len(groups))
        lr = cfg.learning_rate / (1.0 + epoch)
        for start in range(0, len(order), cfg.group_batch):
            batch = order[start : start + cfg.group_batch]
            gw = np.zeros_like(w)
            pairs = 0
            for gi in batch:
                feats, labels = groups[gi]
                z = (feats - mean) / std
                _, gscores = rank_loss(z @ w, labels, cfg.alpha)
                pairs += max(1, len(labels) * (len(labels) - 1) // 2)
                gw += gscores @ z
            w -= (lr / pairs) * gw

    tags = {c.generator_tag for ex in examples for c in ex.candidates.candidates}
    tag = tags.pop() if len(tags) == 1 else "external"
    return ScorerModel(variant, schema, w, mean, std, generator_tag=tag)


def select_best(model: ScorerModel, question: str, cs: CandidateSet,
                featurizer: Featurizer) -> ExpansionCandidate:
    """Argmin-score candidate; ties go to the earliest index."""
    if not cs.candidates:
        raise ValueError("cannot select from an empty candidate set")
    if model.variant == "RD":
        lists = search_candidates(featurizer.index, question, cs, 2, cs.qid)
    else:
        lists = [None] * len(cs.candidates)
    best_i, best_score = 0, math.inf
    for i, (cand, rl) in enumerate(zip(cs.candidates, lists)):
        s = model.score(featurizer.features(model.variant, question, cand, rl))
        if s < best_score:
            best_i, best_score = i, s
    return cs.candidates[best_i]
