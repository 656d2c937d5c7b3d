"""Expansion candidate sets and rank-labeled training data.

A candidate expansion is judged by the rank the answer passage reaches when
"question + expansion" is issued to the retriever, scored by parts (see
``Index.search_set``); a candidate whose answer passage is not in the
top ``k_retrieve`` gets the sentinel ``k_retrieve + 1``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import sys
from dataclasses import dataclass

from .corpus import (AnswerMatcher, PassageStore, QAExample, brief,
                     read_jsonl, run_id, typed_field)
from .index import Index, RankedList
from .text import normalize

log = logging.getLogger(__name__)

GENERATOR_TAGS = ("answer", "sentence", "title", "stub", "external")
_FLOAT_MAX = sys.float_info.max  # no larger number fits a float64


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


@dataclass
class TrainingExample:
    qid: str
    question: str
    candidates: CandidateSet
    labels: list[int]  # each candidate's rank label, 1-based
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
    head = index.search(question, k=5)
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


def label_candidates(index: Index, store: PassageStore, qa: QAExample,
                     cs: CandidateSet, k: int,
                     ) -> tuple[list[int], list[RankedList]]:
    """Rank label and top-``max(k, 2)`` retrieval of every candidate.

    One answer matcher serves all the candidates' lists, which share most
    of their passages, so each passage is matched once, and it reads
    ``index``'s posting lists to skip passages that hold no answer.  The
    search runs at ``max(k, 2)`` for ``make-train``'s top-2 pairs; the rank
    is taken within the first ``k``, and a miss is labeled ``k + 1``.
    """
    matcher = AnswerMatcher(qa.answers, qa.qid, index)
    lists = index.search_set(
        qa.question, [c.text for c in cs.candidates], max(k, 2)).lists
    ranks = (matcher.first_rank(rl.pids(), store) for rl in lists)
    return [r if r is not None and r <= k else k + 1 for r in ranks], lists


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
        labels, lists = label_candidates(index, store, qa, cs, cfg.k_retrieve)
        top2 = [rl.head(2).entries for rl in lists]
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
                "labels": ex.labels,
                "top2": ex.top2,
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def finite_number(v) -> bool:
    """True for an int or float parsed from JSON (bools excluded) that a
    float64 holds as a finite value."""
    return type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX


def _parse_example(obj, known_pids=None) -> TrainingExample:
    if "top1" in obj and "top2" not in obj:
        raise ValueError("old format with top-1 pids only; re-run make-train")
    qid = run_id(obj["qid"], "qid")
    cands = [ExpansionCandidate(**c) for c in obj["candidates"]]
    cs = CandidateSet(qid=qid, candidates=cands)
    if len(cs) != len(cands):
        raise ValueError("a candidate repeats the normalized text of an "
                         "earlier one")
    labels = obj["labels"]
    top2 = obj["top2"]
    if not len(cands) == len(labels) == len(top2):
        raise ValueError(f"{len(cands)} candidates, {len(labels)} labels and "
                         f"{len(top2)} top-2 lists do not agree")
    for i, r in enumerate(labels):
        if type(r) is not int or not 1 <= r <= _FLOAT_MAX:
            raise ValueError(f"rank labels are 1-based integers, but "
                             f"labels[{i}] is {brief(r)}; re-run make-train")
    for i, entries in enumerate(top2):
        if not isinstance(entries, list) or len(entries) > 2 or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and finite_number(e[1]) for e in entries):
            raise ValueError(f"top2[{i}] is not a list of at most 2 "
                             f"[pid, finite score] entries")
        if len(entries) == 2:
            (first, high), (second, low) = entries
            if low > high:
                raise ValueError(f"top2[{i}] scores rise ({high!r} before "
                                 f"{low!r})")
            if first == second:
                raise ValueError(f"top2[{i}] repeats pid {first!r}")
        if known_pids is not None:
            for pid, _ in entries:
                if pid not in known_pids:
                    raise ValueError(f"qid {qid}: top2[{i}] names passage "
                                     f"{pid!r}, which the corpus lacks")
    return TrainingExample(
        qid=qid, question=typed_field(obj, "question", str),
        candidates=cs, labels=labels,
        top2=[[(pid, float(score)) for pid, score in e] for e in top2],
    )


def load_training_set(path, known_pids=None) -> list[TrainingExample]:
    """Read a training set written by ``save_training_set``; a malformed row,
    or one whose top-2 lists name a pid outside ``known_pids`` (when
    given), raises CorpusError naming ``path:line``."""
    return [ex for _, ex in read_jsonl(
        path, lambda obj: _parse_example(obj, known_pids))]
