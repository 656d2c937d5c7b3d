"""Expansion candidate sets and rank-labeled training data.

A candidate expansion is judged by the rank the answer passage reaches when
"question + expansion" is issued to the retriever; a candidate whose answer
passage is not in the top ``k_retrieve`` gets the sentinel ``k_retrieve + 1``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass

from .corpus import (PassageStore, QAExample, contains_answer, read_jsonl,
                     run_id, typed_field)
from .index import Index, RankedList
from .text import normalize

log = logging.getLogger(__name__)

GENERATOR_TAGS = ("answer", "sentence", "title", "stub", "external")


@dataclass(frozen=True, slots=True)
class ExpansionCandidate:
    text: str
    generator_tag: str = "stub"

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeError(f"text must be a str, got {type(self.text).__name__}")
        if not self.text.strip():
            raise ValueError("expansion text is empty after trimming")
        if self.generator_tag not in GENERATOR_TAGS:
            raise ValueError(f"unknown generator_tag {self.generator_tag!r}")


@dataclass
class CandidateSet:
    """A question's candidate expansions: never empty, and distinct by
    normalized text.  Construction keeps the first candidate of each
    normalized text (``dedup``) and raises ValueError if none is left."""
    qid: str
    candidates: list[ExpansionCandidate]

    def __post_init__(self):
        self.candidates = dedup(self.candidates)
        if not self.candidates:
            raise ValueError(f"empty candidate set for {self.qid}")

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True, slots=True)
class RankLabel:
    index: int
    r: int
    hit: bool

    def __post_init__(self):
        if type(self.r) is not int:
            raise TypeError(f"rank label r must be an int, got "
                            f"{type(self.r).__name__}")
        if self.r < 1:
            raise ValueError("rank labels are 1-based")
        if type(self.hit) is not bool:
            raise TypeError(f"rank label hit must be a bool, got "
                            f"{type(self.hit).__name__}")


@dataclass
class TrainingExample:
    qid: str
    question: str
    candidates: CandidateSet
    labels: list[RankLabel]
    # first two (pid, score) entries of each candidate's labeling retrieval
    top2: list[list[tuple[str, float]]]


@dataclass(frozen=True, slots=True)
class ConstructionConfig:
    k_retrieve: int = 100
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_retrieve < 1:
            raise ValueError(f"k_retrieve must be >= 1, got {self.k_retrieve}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def expanded_query(question: str, *expansions: str) -> str:
    """The question followed by each expansion, single-space separated."""
    return " ".join((question, *expansions))


def _norm_key(text: str) -> str:
    return " ".join(normalize(text))


def dedup(candidates: list[ExpansionCandidate]) -> list[ExpansionCandidate]:
    """The first candidate of each normalized text, in order."""
    seen = set()
    kept = []
    for c in candidates:
        key = _norm_key(c.text)
        if key not in seen:
            seen.add(key)
            kept.append(c)
    return kept


def truncate(cs: CandidateSet, n: int) -> CandidateSet:
    """The first ``n`` candidates of ``cs``.  A prefix of a distinct,
    non-empty set is one too, so it is not checked again."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    out = copy.copy(cs)
    out.candidates = cs.candidates[:n]
    return out


def sample_expansions_stub(question: str, n: int, seed: int,
                           index: Index, store: PassageStore) -> CandidateSet:
    """Deterministic offline sampler: compose corpus terms co-occurring with
    the question plus distractor vocabulary terms."""
    if n < 1:
        raise ValueError("n must be >= 1")
    digest = hashlib.sha256(f"{question}\x00{n}\x00{seed}".encode()).digest()
    state = int.from_bytes(digest[:8], "big")

    def next_int(bound: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 17) % bound

    # Terms from passages that match the question, as the co-occurrence pool.
    pool: list[str] = []
    head = index.search(question, k=5, qid="stub")
    for pid in head.pids():
        pool.extend(normalize(store.get(pid).text))
    vocab = index.terms
    # A candidate is 2-4 words, each one token, so W distinct words give at
    # most W^2 + W^3 + W^4 distinct texts; asking for more would never end.
    n_words = len(vocab) + sum(w not in index.vocab for w in set(pool))
    most = n_words ** 2 + n_words ** 3 + n_words ** 4
    if most < n:
        raise ValueError(f"--n-samples {n} exceeds the {most} distinct "
                         f"candidates the stub sampler can compose from "
                         f"{n_words} corpus words")
    seen_keys: set[str] = set()
    candidates = []
    while len(candidates) < n:
        length = 2 + next_int(3)
        words = []
        for _ in range(length):
            if pool and next_int(2) == 0:
                words.append(pool[next_int(len(pool))])
            else:
                words.append(vocab[next_int(len(vocab))])
        text = " ".join(words)
        key = _norm_key(text)
        if key and key not in seen_keys:
            seen_keys.add(key)
            candidates.append(ExpansionCandidate(text=text, generator_tag="stub"))
    qid = hashlib.sha256(question.encode()).hexdigest()[:12]
    return CandidateSet(qid=qid, candidates=candidates)


def load_expansions(path, known_qids=None) -> dict[str, CandidateSet]:
    """Load expansions JSONL of {qid, generator_tag, text}; grouped by qid.

    A malformed row raises CorpusError naming ``path:line``.
    """
    groups: dict[str, list[ExpansionCandidate]] = {}
    warned: set[str] = set()

    def parse(row) -> tuple[str, ExpansionCandidate]:
        tag = sys.intern(str(row.get("generator_tag", "external")))
        return run_id(row["qid"], "qid"), ExpansionCandidate(
            text=row["text"], generator_tag=tag)

    for lineno, (qid, cand) in read_jsonl(path, parse):
        if known_qids is not None and qid not in known_qids and qid not in warned:
            log.warning("%s:%d: qid %s not in QA set; keeping row",
                        path, lineno, qid)
            warned.add(qid)
        groups.setdefault(qid, []).append(cand)
    return {qid: CandidateSet(qid=qid, candidates=cands)
            for qid, cands in groups.items()}


def min_answer_rank(rl: RankedList, answers, store: PassageStore) -> int | None:
    """1-based rank of the first answer-containing passage, or None."""
    if not answers:
        raise ValueError("answers must be nonempty")
    for rank, pid in enumerate(rl.pids(), start=1):
        if contains_answer(store.get(pid), answers):
            return rank
    return None


def search_candidates(index: Index, question: str, cs: CandidateSet, k: int,
                      qid: str) -> list[RankedList]:
    """Top-``k`` retrieval of "question + candidate" for every candidate.

    The one place that searches a question's candidate expansions.  The
    question is analyzed once and each candidate once; together their tokens
    are the analyzed ``expanded_query(question, candidate)``.
    """
    q_tokens = index.analyzer(question)
    return [index.search_tokens(q_tokens + index.analyzer(c.text), k, qid)
            for c in cs.candidates]


def label_candidates(index: Index, store: PassageStore, qa: QAExample,
                     cs: CandidateSet, k: int,
                     ) -> tuple[list[RankLabel], list[list[tuple[str, float]]]]:
    """Rank label and the first two (pid, score) entries of every
    candidate's retrieval.

    The search runs at ``max(k, 2)`` so the stored pair is what a k=2
    search returns; the rank is taken within the first ``k``, and a miss
    is labeled ``k + 1``.
    """
    labels, top2 = [], []
    lists = search_candidates(index, qa.question, cs, max(k, 2), qa.qid)
    for i, rl in enumerate(lists):
        rank = min_answer_rank(rl, qa.answers, store)
        hit = rank is not None and rank <= k
        labels.append(RankLabel(index=i, r=rank if hit else k + 1, hit=hit))
        top2.append(list(zip(rl.pids(), rl.scores[:2].tolist())))
    return labels, top2


def assign_folds(qids, folds: int, seed: int) -> dict[str, int]:
    """Balanced deterministic fold split, stable under dataset reordering."""
    salted = sorted(
        qids, key=lambda q: hashlib.sha256(f"{seed}:{q}".encode()).hexdigest()
    )
    per_fold = -(-len(salted) // folds)
    return {qid: i // per_fold for i, qid in enumerate(salted)}


def build_training_set(store: PassageStore, index: Index, qa_train,
                       cfg: ConstructionConfig, generator) -> list[TrainingExample]:
    """Label generator-produced candidates for every training question.

    ``generator(qa, fold)`` returns the CandidateSet for a question; the fold
    argument lets callers plug per-fold generators.
    """
    if len(qa_train) < cfg.folds:
        raise ValueError(
            f"{len(qa_train)} questions cannot fill {cfg.folds} folds"
        )
    fold_of = assign_folds([qa.qid for qa in qa_train], cfg.folds, cfg.seed)
    out = []
    for qa in qa_train:
        cs = generator(qa, fold_of[qa.qid])
        labels, top2 = label_candidates(index, store, qa, cs, cfg.k_retrieve)
        out.append(TrainingExample(qid=qa.qid, question=qa.question,
                                   candidates=cs, labels=labels, top2=top2))
    return out


def save_training_set(examples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj = {
                "qid": ex.qid,
                "question": ex.question,
                "candidates": [
                    {"text": c.text, "generator_tag": c.generator_tag}
                    for c in ex.candidates.candidates
                ],
                "labels": [{"index": l.index, "r": l.r, "hit": l.hit}
                           for l in ex.labels],
                "top2": ex.top2,
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def finite_number(v) -> bool:
    """True for a finite int or float parsed from JSON (bools excluded)."""
    return type(v) in (int, float) and math.isfinite(v)


def _parse_example(obj) -> TrainingExample:
    if "top1" in obj and "top2" not in obj:
        raise ValueError("old format with top-1 pids only; re-run make-train")
    qid = run_id(obj["qid"], "qid")
    cands = [ExpansionCandidate(**c) for c in obj["candidates"]]
    cs = CandidateSet(qid=qid, candidates=cands)
    if len(cs) != len(cands):
        raise ValueError("a candidate repeats the normalized text of an "
                         "earlier one")
    labels = [RankLabel(**l) for l in obj["labels"]]
    top2 = obj["top2"]
    if not len(cands) == len(labels) == len(top2):
        raise ValueError(f"{len(cands)} candidates, {len(labels)} labels and "
                         f"{len(top2)} top-2 lists do not agree")
    if [l.index for l in labels] != list(range(len(labels))):
        raise ValueError("label indexes are not 0, 1, 2, ... in order")
    for i, entries in enumerate(top2):
        if not isinstance(entries, list) or len(entries) > 2 or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and finite_number(e[1]) for e in entries):
            raise ValueError(f"top2[{i}] is not a list of at most 2 "
                             f"[pid, finite score] entries")
    return TrainingExample(
        qid=qid, question=typed_field(obj, "question", str),
        candidates=cs, labels=labels,
        top2=[[(pid, float(score)) for pid, score in e] for e in top2],
    )


def load_training_set(path) -> list[TrainingExample]:
    """Read a training set written by ``save_training_set``; a malformed row
    raises CorpusError naming ``path:line``."""
    return [ex for _, ex in read_jsonl(path, _parse_example)]
