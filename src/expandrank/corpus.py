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
            raise CorpusError(f"unknown passage id {pid!r}") from None


def read_jsonl(path, parse):
    """Yield ``(line number, parse(row))`` for each non-blank line of a JSONL
    file of objects; any fault in a row, including a KeyError, TypeError or
    ValueError raised by ``parse``, raises ``CorpusError("path:line: ...")``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise CorpusError("expected a JSON object")
                value = parse(row)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            except KeyError as exc:
                raise CorpusError(f"{path}:{lineno}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            yield lineno, value


def typed_field(row: dict, key: str, kind: type, default=None):
    """``row[key]`` (``default`` if given and the key is absent), a ``kind``."""
    value = row[key] if default is None else row.get(key, default)
    if not isinstance(value, kind):
        raise TypeError(f"{key} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def id_text(value, key: str) -> str:
    """An id, qid or answer read from JSON as text: a string, or an integer
    written in decimal (so ``7`` reads as ``"7"``)."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    raise TypeError(f"{key} must be a string or an integer, "
                    f"got {type(value).__name__}")


def run_id(value, key: str) -> str:
    """A passage id or qid: ``id_text`` that is non-empty and holds no
    whitespace, since a run file's columns are split on whitespace."""
    text = id_text(value, key)
    if text.split() != [text]:
        raise ValueError(f"{key} must be non-empty with no whitespace, "
                         f"got {text!r}")
    return text


def load_corpus(path) -> PassageStore:
    """Load a JSONL corpus of {id, title, text} objects."""
    seen = set()

    def parse(row) -> Passage:
        pid = run_id(row["id"], "id")
        if pid in seen:
            raise CorpusError(f"duplicate id {pid}")
        seen.add(pid)
        return Passage(id=pid, title=typed_field(row, "title", str, ""),
                       text=typed_field(row, "text", str))

    return PassageStore([p for _, p in read_jsonl(path, parse)])


def load_questions(path, require_answers: bool = True) -> list[QAExample]:
    """Load a JSONL QA set of {qid, question, answers} objects.

    With ``require_answers=False`` the answers field may be absent or empty
    (bare-question inference files); answer-dependent operations will reject
    such examples themselves.
    """
    seen = set()

    def parse(row) -> QAExample:
        qid = run_id(row["qid"], "qid")
        if qid in seen:
            raise CorpusError(f"duplicate qid {qid}")
        seen.add(qid)
        answers = tuple(id_text(a, "answer")
                        for a in typed_field(row, "answers", list, []))
        if require_answers and not answers:
            raise CorpusError(f"question {qid} has no answers")
        return QAExample(qid=qid, question=typed_field(row, "question", str),
                         answers=answers)

    return [qa for _, qa in read_jsonl(path, parse)]


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
