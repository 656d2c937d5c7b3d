"""Synthetic corpora for tests and benchmarks.

The planted fixture is built so that each question has exactly one expansion
candidate carrying a term that deterministically pulls the answer passage to
rank 1, surrounded by distractor candidates whose retrieval behavior is
controlled.  Every passage is the same token length, so BM25 comparisons
reduce to IDF sums and rank orders are fully predictable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .corpus import Passage, PassageStore, QAExample
from .expansion import CandidateSet, ExpansionCandidate

DOC_LEN = 12
N_CANDIDATES = 10
N_NOISE_PASSAGES = 8
FILLER_POOL = 30


def code3(i: int) -> str:
    """Three letters from b..z (no 'a', keeping char-3-gram sets clean)."""
    letters = "bcdefghijklmnopqrstuvwxyz"
    out = []
    for _ in range(3):
        out.append(letters[i % 25])
        i //= 25
    return "".join(out)


@dataclass
class PlantedFixture:
    passages: list[Passage]
    questions: list[QAExample]
    candidates: dict[str, CandidateSet]
    trapped_qids: set[str]
    useful_index: dict[str, int]

    def store(self) -> PassageStore:
        return PassageStore(self.passages)


def _is_easy(i: int) -> bool:
    return i % 2 == 0


def _is_trapped(i: int) -> bool:
    return i % 7 == 3


def _is_late(i: int) -> bool:
    return i % 10 < 3


def make_planted(n_questions: int = 200, seed: int = 0) -> PlantedFixture:
    rng = random.Random(seed)
    fillers = [f"fill{code3(j)}" for j in range(FILLER_POOL)]

    def pad(tokens: list[str], target: int = DOC_LEN) -> str:
        padded = tokens + [fillers[rng.randrange(FILLER_POOL)]
                           for _ in range(target - len(tokens))]
        return " ".join(padded)

    passages: list[Passage] = []
    questions: list[QAExample] = []
    candidates: dict[str, CandidateSet] = {}
    trapped = set()
    useful_index: dict[str, int] = {}

    for i in range(n_questions):
        c = code3(i)
        qid = f"q{i:04d}"
        topic_a, topic_b = f"topika{c}", f"topikb{c}"
        key, trap, ans = f"keyaa{c}", f"trapa{c}", f"answa{c}"
        n_related = 2 if _is_easy(i) else 10

        passages.append(Passage(
            id=f"q{i:04d}-z-ans", title=f"answer {c}",
            text=pad([topic_a, topic_b, key, ans]),
        ))
        for j in range(n_related):
            passages.append(Passage(
                id=f"q{i:04d}-rel{j:02d}", title="",
                text=pad([topic_a, topic_b]),
            ))
        noise_tokens = [
            [f"zn{i}x{j}{s}" for s in "abc"] for j in range(N_NOISE_PASSAGES)
        ]
        for j, toks in enumerate(noise_tokens):
            passages.append(Passage(
                id=f"q{i:04d}-noise{j:02d}", title="", text=pad(list(toks)),
            ))
        if _is_trapped(i):
            trapped.add(qid)
            passages.append(Passage(
                id=f"q{i:04d}-decoy", title="", text=pad([trap]),
            ))

        questions.append(QAExample(
            qid=qid, question=f"what is {topic_a} {topic_b}", answers=(ans,)
        ))

        # Candidate layout: greedy first, trap (if any) right after, the
        # useful key either early or late, noise filling the rest.
        cands: list[ExpansionCandidate | None] = [None] * N_CANDIDATES
        cands[0] = ExpansionCandidate(text=f"gren{c}x", generator_tag="stub")
        if _is_trapped(i):
            cands[1] = ExpansionCandidate(text=trap, generator_tag="stub")
        u_idx = 7 if _is_late(i) else 2
        cands[u_idx] = ExpansionCandidate(text=key, generator_tag="stub")
        useful_index[qid] = u_idx
        noise_iter = iter(noise_tokens)
        for slot in range(N_CANDIDATES):
            if cands[slot] is None:
                cands[slot] = ExpansionCandidate(
                    text=" ".join(next(noise_iter)), generator_tag="stub"
                )
        candidates[qid] = CandidateSet(qid=qid, candidates=cands)

    return PlantedFixture(passages=passages, questions=questions,
                          candidates=candidates, trapped_qids=trapped,
                          useful_index=useful_index)


def write_corpus(passages, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps({"id": p.id, "title": p.title, "text": p.text},
                                sort_keys=True))
            fh.write("\n")


def write_questions(questions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qa in questions:
            fh.write(json.dumps({"qid": qa.qid, "question": qa.question,
                                 "answers": list(qa.answers)}, sort_keys=True))
            fh.write("\n")


def write_expansions(candidates: dict[str, CandidateSet], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in candidates:
            for cand in candidates[qid].candidates:
                fh.write(json.dumps({"qid": qid, "generator_tag": cand.generator_tag,
                                     "text": cand.text}, sort_keys=True))
                fh.write("\n")


def make_random_corpus(n_docs: int, seed: int = 0, vocab_size: int = 2000,
                       doc_len: int = 40) -> list[Passage]:
    """Zipf-ish random corpus for oracle-equivalence and size benchmarks."""
    rng = random.Random(seed)
    vocab = [f"w{code3(j)}{j}" for j in range(vocab_size)]
    weights = [1.0 / (j + 1) for j in range(vocab_size)]
    out = []
    for d in range(n_docs):
        tokens = rng.choices(vocab, weights=weights, k=doc_len)
        out.append(Passage(id=f"d{d:06d}", title="", text=" ".join(tokens)))
    return out


def make_random_queries(n_queries: int, passages, seed: int = 0,
                        terms_per_query: int = 4) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n_queries):
        p = passages[rng.randrange(len(passages))]
        tokens = p.text.split()
        out.append(" ".join(rng.choices(tokens, k=terms_per_query)))
    return out
