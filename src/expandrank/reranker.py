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
import operator
from dataclasses import dataclass

import numpy as np

from .corpus import PassageStore, brief
from .expansion import CandidateSet
from .index import Index, SetSearch
from .text import normalize

RI_SCHEMA = "ri-v2"   # 8 features
RD_SCHEMA = "rd-v2"   # RI block + 5 retrieval-dependent features
SCHEMA_DIMS = {RI_SCHEMA: 8, RD_SCHEMA: 13}
VARIANT_SCHEMA = {"RI": RI_SCHEMA, "RD": RD_SCHEMA}


# _GRAM_SLICES[n] slices every character 3-gram out of a token of length
# n; a token shorter than 3 is its own one gram, which t[0:3] also gives.
_SLICED_LEN = 40
_GRAM_SLICES = tuple(tuple(slice(i, i + 3) for i in range(max(n - 2, 1)))
                     for n in range(_SLICED_LEN + 1))
_first_char = operator.itemgetter(0)


def _char3(tokens) -> set[str]:
    """The character 3-grams of ``tokens``, non-empty strings; a token
    shorter than 3 counts as one gram."""
    grams = set()
    update = grams.update
    for t in tokens:
        n = len(t)
        if n <= _SLICED_LEN:
            update(map(t.__getitem__, _GRAM_SLICES[n]))
        else:
            update([t[i : i + 3] for i in range(n - 2)])
    return grams


class Featurizer:
    """Builds the feature matrix of a candidate set, one row per expansion."""

    def __init__(self, index: Index, store: PassageStore):
        self.index = index
        self.store = store

    def features(self, variant: str, question: str, texts,
                 tops=None) -> np.ndarray:
        """(len(texts), d) features of expansions ``texts``; RD needs
        ``tops``, each text's first two retrieved (pid, score) pairs.

        The question and each text are normalized once, and the idfs of all
        the set's novel tokens are looked up together; nothing is kept
        past the call."""
        if variant not in VARIANT_SCHEMA:
            raise ValueError(f"unknown variant {variant!r}")
        rd = variant == "RD"
        if rd and (tops is None or len(tops) != len(texts)):
            raise ValueError("RD features need each expanded query's retrieval")
        qt = set(normalize(question))
        qg = _char3(qt)
        parsed = []  # (text, tokens, token set, novel tokens) per text
        all_novel = set()
        for text in texts:
            et = normalize(text)
            et_set = set(et)
            novel = et_set - qt
            all_novel |= novel
            parsed.append((text, et, et_set, novel))
        set_novel = sorted(all_novel)
        idf_of = dict(zip(set_novel, self.index.token_idfs(set_novel)))
        top1 = {}  # top-1 pid -> (token set, question overlap, length)
        rows = []
        for i, (text, et, et_set, novel) in enumerate(parsed):
            n_et = len(et_set)
            overlap = (n_et - len(novel)) / n_et if n_et else 0.0
            novel_idfs = list(map(idf_of.__getitem__, sorted(novel)))
            eg = _char3(et_set)
            inter = len(qg & eg)
            union = len(qg) + len(eg) - inter
            row = [
                float(len(et)),
                overlap,
                1.0 - overlap if n_et else 0.0,
                max(novel_idfs) if novel_idfs else 0.0,
                sum(novel_idfs) / len(novel_idfs) if novel_idfs else 0.0,
                float(sum(map(str.isdigit, et))),
                float(sum(map(str.isupper, map(_first_char, text.split())))),
                inter / union if union else 0.0,
            ]
            if rd and tops[i]:
                # top-1 score, overlaps with and length of top-1, margin
                (pid, top_score), *second = tops[i]
                if pid not in top1:
                    d_tokens = normalize(self.store.get(pid).text)
                    dt = set(d_tokens)
                    top1[pid] = (dt, len(qt & dt) / len(qt) if qt else 0.0,
                                 float(len(d_tokens)))
                dt, q_overlap, length = top1[pid]
                row += [top_score,
                        len(novel & dt) / len(novel) if novel else 0.0,
                        q_overlap, length,
                        1.0 if not second or top_score - second[0][1] > 0
                        else 0.0]
            elif rd:
                row += [0.0] * 5
            rows.append(row)
        dim = SCHEMA_DIMS[VARIANT_SCHEMA[variant]]
        return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


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
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.group_batch < 1:
            raise ValueError(f"group_batch must be >= 1, got {self.group_batch}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")

    def epochs_for(self, variant: str) -> int:
        if self.epochs is not None:
            return self.epochs
        return 2 if variant == "RI" else 3


MODEL_FORMAT_VERSION = 1


class LinearModel:
    """A linear scorer over standardized features, and its model file.

    A subclass names its file ``kind`` and the ``schemas`` it scores:
    schema id -> (the expansion variant scoring it, or None; feature
    count).  The constructor raises ValueError "field: why" unless the
    schema is one of them (an older one must be trained again), the
    variant is the schema's, weights, mean and std are finite, one per
    feature, and std > 0: so any model made can be saved and loaded.
    """

    kind: str
    schemas: dict[str, tuple[str | None, int]]

    def __init__(self, variant: str | None, schema_id: str, weights,
                 feature_mean, feature_std):
        if type(schema_id) is not str or schema_id not in self.schemas:
            raise ValueError(f"schema_id: unknown schema {brief(schema_id)}; "
                             f"re-train the model")
        schema_variant, dim = self.schemas[schema_id]
        if variant != schema_variant:
            raise ValueError(f"variant: {brief(variant)} does not match "
                             f"schema {schema_id}")
        self.variant = variant
        self.schema_id = schema_id
        columns = []
        for field, values in (("weights", weights),
                              ("feature_mean", feature_mean),
                              ("feature_std", feature_std)):
            try:
                column = np.asarray(values, dtype=np.float64)
            except OverflowError:  # an int that no float64 holds
                raise ValueError(f"{field}: values must be finite") from None
            if column.shape != (dim,):
                raise ValueError(f"{field}: expected {dim} values "
                                 f"for {schema_id}")
            if not np.all(np.isfinite(column)):
                raise ValueError(f"{field}: values must be finite")
            columns.append(column)
        if np.any(columns[2] <= 0):
            raise ValueError("feature_std: values must be positive")
        self.weights, self.feature_mean, self.feature_std = columns

    def linear(self, features) -> np.ndarray:
        """The weights dotted with each standardized row of ``features``,
        each row summed on its own: a BLAS matvec may score equal rows
        unequally."""
        f = np.asarray(features, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != len(self.weights):
            raise ValueError(f"feature matrix of shape {f.shape} does not "
                             f"have {len(self.weights)} columns")
        return ((f - self.feature_mean) / self.feature_std
                * self.weights).sum(axis=1)

    def save(self, path) -> None:
        """Write the file ``load`` reads.  Keys are sorted, so equal models
        give equal bytes."""
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "schema_id": self.schema_id,
            "weights": self.weights.tolist(),
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
        }
        if self.variant is not None:
            doc["variant"] = self.variant
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """The model of the file ``save`` writes, built by
        ``LinearModel.__init__``, which checks the schema and variant the
        file names (a subclass's constructor assumes them).  Raises
        ValueError "path: field: why"."""
        def fail(field: str, why: str):
            raise ValueError(f"{path}: {field}: {why}")

        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:
                fail("json", str(exc))
        if not isinstance(doc, dict) or doc.get("kind") != cls.kind:
            fail("kind", f"not a {cls.kind} model")
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            fail("format_version",
                 f"{brief(version)} is not {MODEL_FORMAT_VERSION}")
        for field in ("weights", "feature_mean", "feature_std"):
            values = doc.get(field)
            # bools are ints to Python, but not numbers in a model file
            if not (isinstance(values, list)
                    and all(type(v) in (int, float) for v in values)):
                fail(field, "expected a list of numbers")
        model = cls.__new__(cls)
        try:
            LinearModel.__init__(model, doc.get("variant"),
                                 doc.get("schema_id"), doc["weights"],
                                 doc["feature_mean"], doc["feature_std"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return model


class ScorerModel(LinearModel):
    """An RI or RD expansion scorer: lower scores are better."""

    kind = "expansion_scorer"
    schemas = {schema: (variant, SCHEMA_DIMS[schema])
               for variant, schema in VARIANT_SCHEMA.items()}

    def score(self, features: np.ndarray) -> np.ndarray:
        """One score per row of a candidate set's feature matrix."""
        return self.linear(features)


def rank_loss(scores, ranks, alpha: float) -> tuple[float, np.ndarray]:
    """Pairwise hinge loss and its (sub)gradient with respect to the scores.

    Subgradient at the hinge kink is 0.
    """
    s = np.asarray(scores, dtype=np.float64)
    ranks = np.asarray(ranks, dtype=np.float64)
    if s.shape[0] != ranks.shape[0]:
        raise ValueError("scores and ranks must align")
    gap = ranks[None, :] - ranks[:, None]  # [i, j] = r_j - r_i
    hinge = s[:, None] - s[None, :] + gap * alpha
    active = (gap > 0) & (hinge > 0)
    grad = (active.sum(axis=1) - active.sum(axis=0)).astype(np.float64)
    return float(hinge[active].sum()), grad


def standardizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column means and stds that standardize a linear scorer's
    training matrix ``features``.  A column that is constant over it takes
    its value as its mean, which a computed mean of a value such as 2/3
    need not equal, and gets std 1, so it standardizes to exactly 0 and
    training leaves its weight at 0."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std < 1e-12] = 1.0
    constant = (features == features[:1]).all(axis=0)
    mean[constant] = features[0, constant]
    return mean, std


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
        texts = [c.text for c in ex.candidates.candidates]  # RD: no search
        groups.append((featurizer.features(variant, ex.question, texts,
                                           ex.top2), ex.labels))
    if not groups:
        raise ValueError("no training questions")

    mean, std = standardizer(np.concatenate([f for f, _ in groups]))
    groups = [((feats - mean) / std, labels) for feats, labels in groups]
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
                z, labels = groups[gi]
                _, gscores = rank_loss(z @ w, labels, cfg.alpha)
                pairs += max(1, len(labels) * (len(labels) - 1) // 2)
                gw += gscores @ z
            w -= (lr / pairs) * gw
    return ScorerModel(variant, schema, w, mean, std)


def select_best(model: ScorerModel, question: str, cs: CandidateSet,
                featurizer: Featurizer) -> tuple[int, SetSearch | None]:
    """The position in ``cs`` of the argmin-score candidate, ties to the
    earliest, and the set search it was chosen from.

    RD featurizes each candidate's top 2 of "question + candidate", from
    one search of the set (``Index.search_set``), and returns that
    search, from whose scores ``pipeline.choose`` cuts the chosen
    candidate's final list (``SetSearch.top``); so ``ear_rd``'s n
    candidates cost n expansions scored, not n + 1.  RI searches nothing
    and returns None.
    """
    texts = [c.text for c in cs.candidates]
    found = (featurizer.index.search_set(question, texts, 2)
             if model.variant == "RD" else None)
    lists = found.lists if found else []
    feats = featurizer.features(model.variant, question, texts,
                                [rl.entries for rl in lists])
    return int(np.argmin(model.score(feats))), found
