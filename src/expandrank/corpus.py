"""Passage and QA dataset loading, plus the answer-containment predicate."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .text import normalize


class CorpusError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Passage:
    id: str
    title: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise CorpusError("passage id must be nonempty")
        if not self.text:
            raise CorpusError(f"passage {self.id!r} has empty text")


@dataclass(frozen=True, slots=True)
class QAExample:
    qid: str
    question: str
    answers: tuple[str, ...]

    def __post_init__(self):
        if not self.question:
            raise CorpusError(f"question {self.qid!r} is empty")


class PassageStore:
    """Immutable id-addressable passage collection."""

    def __init__(self, passages: list[Passage]):
        self._by_id: dict[str, Passage] = {}
        for p in passages:
            if p.id in self._by_id:
                raise CorpusError(f"duplicate id {p.id}")
            self._by_id[p.id] = p
        self._passages = tuple(passages)

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self):
        return iter(self._passages)

    def __contains__(self, pid: str) -> bool:
        return pid in self._by_id

    def get(self, pid: str) -> Passage:
        try:
            return self._by_id[pid]
        except KeyError:
            raise KeyError(f"unknown passage id {pid!r}") from None


def _iter_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def load_corpus(path) -> PassageStore:
    """Load a JSONL corpus of {id, title, text} objects."""
    passages = []
    for lineno, obj in _iter_jsonl(path):
        try:
            passages.append(
                Passage(id=str(obj["id"]), title=str(obj.get("title", "")),
                        text=str(obj["text"]))
            )
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc}") from exc
    return PassageStore(passages)


def load_questions(path, require_answers: bool = True) -> list[QAExample]:
    """Load a JSONL QA set of {qid, question, answers} objects.

    With ``require_answers=False`` the answers field may be absent or empty
    (bare-question inference files); answer-dependent operations will reject
    such examples themselves.
    """
    out = []
    seen = set()
    for lineno, obj in _iter_jsonl(path):
        try:
            qid = str(obj["qid"])
            if qid in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate qid {qid}")
            seen.add(qid)
            answers = tuple(str(a) for a in obj.get("answers", ()))
            if require_answers and not answers:
                raise CorpusError(f"{path}:{lineno}: question {qid} has no answers")
            out.append(QAExample(qid=qid, question=str(obj["question"]),
                                 answers=answers))
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc}") from exc
    return out


def contains_answer(passage: Passage, answers) -> bool:
    """True iff some answer's normalized tokens occur contiguously in the passage."""
    if not answers:
        raise ValueError("answers must be nonempty")
    doc = normalize(passage.text)
    for answer in answers:
        needle = normalize(answer)
        if not needle:
            continue
        n = len(needle)
        for i in range(len(doc) - n + 1):
            if doc[i : i + n] == needle:
                return True
    return False
