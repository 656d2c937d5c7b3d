"""Expansion candidate sets and rank-labeled training data.

A candidate expansion is judged by the rank the answer passage reaches when
"question + expansion" is issued to the retriever; misses inside the top
``k_retrieve`` get the ``max_rank`` sentinel.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, replace

from .corpus import PassageStore, QAExample, contains_answer
from .index import Index, RankedList
from .text import normalize

log = logging.getLogger(__name__)

GENERATOR_TAGS = ("answer", "sentence", "title", "stub", "external")


@dataclass(frozen=True, slots=True)
class ExpansionCandidate:
    text: str
    generator_tag: str = "stub"

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("expansion text is empty after trimming")
        if self.generator_tag not in GENERATOR_TAGS:
            raise ValueError(f"unknown generator_tag {self.generator_tag!r}")


@dataclass
class CandidateSet:
    qid: str
    candidates: list[ExpansionCandidate]

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True, slots=True)
class RankLabel:
    index: int
    r: int
    hit: bool

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank labels are 1-based")


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
    max_rank: int = 101
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_rank <= self.k_retrieve:
            raise ValueError(
                f"max_rank ({self.max_rank}) must exceed k_retrieve "
                f"({self.k_retrieve})"
            )
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def expanded_query(question: str, *expansions: str) -> str:
    """The question followed by each expansion, single-space separated."""
    return " ".join((question, *expansions))


def _norm_key(text: str) -> str:
    return " ".join(normalize(text))


def dedup(cs: CandidateSet) -> CandidateSet:
    seen = set()
    kept = []
    for c in cs.candidates:
        key = _norm_key(c.text)
        if key not in seen:
            seen.add(key)
            kept.append(c)
    return replace(cs, candidates=kept)


def truncate(cs: CandidateSet, n: int) -> CandidateSet:
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    return replace(cs, candidates=cs.candidates[:n])


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
    """Load expansions JSONL of {qid, generator_tag, text}; grouped by qid."""
    groups: dict[str, list[ExpansionCandidate]] = {}
    warned: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            qid = str(obj["qid"])
            tag = str(obj.get("generator_tag", "external"))
            if tag not in GENERATOR_TAGS:
                raise ValueError(f"{path}:{lineno}: unknown generator_tag {tag!r}")
            tag = sys.intern(tag)  # one str per tag, not one per row
            if known_qids is not None and qid not in known_qids and qid not in warned:
                log.warning("%s:%d: qid %s not in QA set; keeping row",
                            path, lineno, qid)
                warned.add(qid)
            groups.setdefault(qid, []).append(
                ExpansionCandidate(text=str(obj["text"]), generator_tag=tag)
            )
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

    The one place that searches a question's candidate expansions.  One
    stem memo serves all of them, so the question is stemmed once.
    """
    memo: dict[str, str] = {}
    return [index.search(expanded_query(question, c.text), k, qid=qid,
                         memo=memo)
            for c in cs.candidates]


def label_candidates(index: Index, store: PassageStore, qa: QAExample,
                     cs: CandidateSet, cfg: ConstructionConfig,
                     ) -> tuple[list[RankLabel], list[list[tuple[str, float]]]]:
    """Rank label and the first two (pid, score) entries of every
    candidate's retrieval.

    The search runs at ``max(k_retrieve, 2)`` so the stored pair is what a
    k=2 search returns; the rank is taken within the first ``k_retrieve``.
    """
    if not cs.candidates:
        raise ValueError(f"empty candidate set for {qa.qid}")
    labels, top2 = [], []
    lists = search_candidates(index, qa.question, cs, max(cfg.k_retrieve, 2),
                              qa.qid)
    for i, rl in enumerate(lists):
        rank = min_answer_rank(rl, qa.answers, store)
        r = rank if rank is not None and rank <= cfg.k_retrieve else cfg.max_rank
        labels.append(RankLabel(index=i, r=r, hit=r != cfg.max_rank))
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
        cs = dedup(generator(qa, fold_of[qa.qid]))
        labels, top2 = label_candidates(index, store, qa, cs, cfg)
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
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if "top1" in obj and "top2" not in obj:
        raise ValueError("old format with top-1 pids only; re-run make-train")
    missing = [k for k in ("qid", "question", "candidates", "labels", "top2")
               if k not in obj]
    if missing:
        raise ValueError(f"missing keys {missing}")
    cands = [ExpansionCandidate(**c) for c in obj["candidates"]]
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
    qid = str(obj["qid"])
    return TrainingExample(
        qid=qid, question=str(obj["question"]),
        candidates=CandidateSet(qid=qid, candidates=cands), labels=labels,
        top2=[[(pid, float(score)) for pid, score in e] for e in top2],
    )


def load_training_set(path) -> list[TrainingExample]:
    """Read a training set written by ``save_training_set``; a malformed row
    raises ValueError naming ``path:line``."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(_parse_example(json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
