"""Passage and QA dataset loading, plus the answer-containment predicate."""

from __future__ import annotations

import json
from contextlib import contextmanager
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


@contextmanager
def open_utf8(path, error=CorpusError):
    """``path`` opened as UTF-8 text.  Reading a byte that is not UTF-8
    raises ``error("path:line: not valid UTF-8")``: only then is the file
    read again as bytes, split into lines as text mode splits them, to find
    the first line that decoding with replacement changes."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        line = next(n for n, raw in enumerate(lines, start=1)
                    if raw.decode("utf-8", "replace").encode() != raw)
        raise error(f"{path}:{line}: not valid UTF-8") from None


def read_jsonl(path, parse):
    """Yield ``(line number, parse(row))`` for each non-blank line of a JSONL
    file of objects; any fault in a row, including a KeyError, TypeError or
    ValueError raised by ``parse``, or a byte that is not UTF-8, raises
    ``CorpusError("path:line: ...")``."""
    with open_utf8(path) as fh:
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


class AnswerMatcher:
    """Which passages contain one of a question's answers.

    An answer is contained when its normalized tokens occur contiguously
    among the passage's.  Each answer is normalized once, its tokens joined
    and padded by single spaces; a passage's tokens are joined and padded
    the same way, and the answers are looked for in it as substrings.
    Tokens are ``[0-9a-z]+``, so a padded match starts and ends on token
    boundaries.  An answer that normalizes to nothing never matches.  Each
    passage id's result is kept for as long as the matcher, which lives for
    one question.

    Given ``index``, the matcher skips passages that cannot hold an answer.
    On the first passage that does not match, it intersects, for each
    answer, the posting lists of the answer's terms, once; from then on a
    passage outside every answer's intersection is a miss and is not
    normalized.  ``build_index`` indexes each surface token as
    ``Analyzer.term`` of it, which ``Index.surface_terms`` looks up too, so
    a passage that holds an answer is on the posting list of each of the
    answer's terms (a stopword has none, and a token with no term is in no
    passage); indexing titles only adds postings.  This holds only if
    ``index`` was built from the store whose passages are matched, as
    retrieval assumes too; the CLI checks only that the corpus holds every
    pid of the index.
    """

    __slots__ = ("_needles", "_hits", "_index", "_maybe")

    def __init__(self, answers, qid: str | None = None, index=None):
        if not answers:
            raise ValueError("answers must be nonempty" if qid is None
                             else f"question {qid} has no answers")
        self._needles = [f" {' '.join(tokens)} "
                         for tokens in map(normalize, answers) if tokens]
        self._hits: dict[str, bool] = {}
        self._index = index  # until the first miss
        # pids that may hold an answer; None: any passage may
        self._maybe: set[str] | None = None

    def __call__(self, passage: Passage) -> bool:
        hit = self._hits.get(passage.id)
        if hit is None:
            hit = self._hits[passage.id] = self._match(passage)
        return hit

    def _match(self, passage: Passage) -> bool:
        if self._maybe is not None and passage.id not in self._maybe:
            return False
        doc = f" {' '.join(normalize(passage.text))} "
        hit = any(n in doc for n in self._needles)
        if not hit and self._index is not None:
            self._maybe = self._may_hold(self._index)
            self._index = None
        return hit

    def _may_hold(self, index) -> set[str] | None:
        """Pids on the posting lists of all of some answer's terms, or None
        if an answer of stopwords alone has no terms to require."""
        maybe: set[str] = set()
        for needle in self._needles:
            tokens = needle.split()
            terms = set()
            for token, tid in zip(tokens, index.surface_terms(tokens)):
                if tid is not None:
                    terms.add(tid)
                elif not index.analyzer.is_stopword(token):
                    break  # no passage holds the token, nor the answer
            else:
                if not terms:
                    return None
                maybe.update(index.pids_on_every_list(terms))
        return maybe

    def first_rank(self, pids, store: PassageStore) -> int | None:
        """1-based rank of the first answer-containing passage, or None."""
        hits = self._hits
        for rank, pid in enumerate(pids, start=1):
            hit = hits.get(pid)
            if hit is None:
                hit = self(store.get(pid))
            if hit:
                return rank
        return None


def contains_answer(passage: Passage, answers) -> bool:
    """True iff some answer's normalized tokens occur contiguously in the passage."""
    return AnswerMatcher(answers)(passage)
