"""Inverted index with Okapi BM25 scoring.

Determinism rules that the rest of the pipeline leans on:

* internal doc numbering is ascending passage id, so score ties resolve to the
  lexicographically smallest pid;
* vocabulary order is sorted terms;
* only positively scoring documents are returned.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

import numpy as np

from . import kernels
from .corpus import PassageStore, brief
from .text import Analyzer, normalize

MAGIC = b"XRIDX001"
# postings per slice when ``Index`` computes their contributions
_SLICE = 1 << 15


class IndexError_(ValueError):
    pass


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4
    stemming: bool = True
    stopwords: bool = True
    index_titles: bool = False

    def __post_init__(self):
        # exact types: a bool k1 or a string flag would load and change scores
        for name, kinds, what in (
                ("k1", (int, float), "a number"), ("b", (int, float), "a number"),
                ("stemming", (bool,), "a bool"), ("stopwords", (bool,), "a bool"),
                ("index_titles", (bool,), "a bool")):
            value = getattr(self, name)
            if type(value) not in kinds:
                raise IndexError_(f"{name} must be {what}, got "
                                  f"{type(value).__name__}")
        # false for nan, inf and an int that no float64 holds
        if not abs(self.k1) <= sys.float_info.max:
            raise IndexError_(f"k1 must be finite, got {brief(self.k1)}")
        if self.k1 <= 0:
            raise IndexError_(f"k1 must be positive, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise IndexError_(f"b must be in [0, 1], got {brief(self.b)}")

    def analyzer(self) -> Analyzer:
        return Analyzer(stemming=self.stemming, stopwords=self.stopwords)


def _row_type(table_size: int) -> type:
    """The narrowest row type that indexes a table of ``table_size`` pids."""
    return np.uint16 if table_size <= 1 << 16 else np.int32


class RankedList:
    """Ordered (pid, score) pairs; the common currency of retrieval and fusion.

    Stored as two columns: one row per entry into a table of distinct pids
    (uint16 while the table holds at most 65,536 pids, else int32), which
    lists may share (search results share ``Index._pid_objs``), and one
    float64 per entry.  ``entries`` and ``pids()`` build the pids on
    demand; a reader of the first few entries takes ``head(n)``.  ``head``
    and ``reorder`` make lists that share the table.  A list is its pids
    and scores: it carries no qid, since a run is a ``{qid: RankedList}``
    map whose key names the question, and no run name, which
    ``evalbench.write_run`` takes.
    """

    __slots__ = ("_table", "_rows", "scores")

    def __init__(self, pids, scores):
        """A list of ``pids`` with the aligned ``scores``."""
        self.scores: np.ndarray = np.asarray(scores, dtype=np.float64)
        if len(pids) != len(self.scores):
            raise ValueError(f"{len(pids)} pids but {len(self.scores)} scores")
        # the distinct pids in first-seen order, and each entry's position
        row_of: dict[str, int] = {}
        rows = [row_of.setdefault(pid, len(row_of)) for pid in pids]
        self._table = np.array(list(row_of), dtype=object)
        self._rows = np.array(rows, dtype=_row_type(len(row_of)))

    @classmethod
    def _of_rows(cls, table: np.ndarray, rows: np.ndarray,
                 scores: np.ndarray) -> "RankedList":
        rl = cls.__new__(cls)
        rl._table, rl._rows, rl.scores = table, rows, scores
        return rl

    @property
    def entries(self) -> list[tuple[str, float]]:
        return list(zip(self.pids(), self.scores.tolist()))

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.pids() == other.pids()
                and self.scores.tolist() == other.scores.tolist())

    __hash__ = None

    def __repr__(self) -> str:
        return f"RankedList({self.pids()!r}, {self.scores.tolist()!r})"

    def pids(self) -> list[str]:
        return self._table[self._rows].tolist()

    def head(self, n: int) -> "RankedList":
        """The first ``n`` entries: the list itself when it has no more."""
        if n >= len(self._rows):
            return self
        return RankedList._of_rows(self._table, self._rows[:n],
                                   self.scores[:n])

    def reorder(self, order, scores) -> "RankedList":
        """This list with its first ``len(order)`` entries taken in
        ``order`` (positions into this list) and the rest in place, scored
        ``scores``."""
        rows = self._rows.copy()
        rows[:len(order)] = self._rows[order]
        return RankedList._of_rows(self._table, rows,
                                   np.asarray(scores, dtype=np.float64))

    def validate(self) -> None:
        if np.any(self.scores[:-1] < self.scores[1:]):
            raise ValueError("scores not non-increasing")
        # table pids are distinct, so a repeated pid is a repeated row
        rows = np.sort(self._rows)
        if np.any(rows[1:] == rows[:-1]):
            raise ValueError("duplicate pids")


class Index:
    def __init__(self, pids, vocab, post_offsets, post_docs, post_tfs,
                 doc_lengths, params: Bm25Params):
        self.pids: list[str] = pids
        self.vocab: dict[str, int] = {t: i for i, t in enumerate(vocab)}
        self.terms: list[str] = vocab
        self.post_offsets = post_offsets
        self.post_docs = post_docs
        self.post_tfs = post_tfs
        self.doc_lengths = doc_lengths
        self.params = params
        self.analyzer = params.analyzer()
        # surface token -> term id or None, filled by ``surface_terms``
        self._term_of: dict[str, int | None] = {}

        self.doc_count = len(pids)
        self.avg_doc_length = float(doc_lengths.mean()) if len(pids) else 0.0
        self._pid_to_doc = {pid: i for i, pid in enumerate(pids)}
        # the same strs as ``pids``: the table every search result's rows
        # index into
        self._pid_objs = np.array(pids, dtype=object)

        n = float(self.doc_count)
        df = np.diff(post_offsets).astype(np.float64)
        self.idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        # the idf of a term no passage holds, df 0
        self.unseen_idf = math.log(1.0 + (n + 0.5) / 0.5)
        avgdl = self.avg_doc_length if self.avg_doc_length > 0 else 1.0
        dl = doc_lengths.astype(np.float64)
        self.len_norm = params.k1 * (1.0 - params.b + params.b * dl / avgdl)
        # Each posting's contribution for its term counted once, impact·idf:
        # the only float64 array of the postings' size, filled in slices so
        # set-up holds no temporary of that size.  A term-at-a-time loop
        # weighs a term counted once by 1.0·idf, which is idf, so a search
        # sums its slice as it is; ``_counted`` serves other counts.
        n_post = len(post_docs)
        self._impact = np.empty(n_post, dtype=np.float64)
        idf_sums = np.zeros(self.doc_count)
        for a in range(0, n_post, _SLICE):
            b = min(a + _SLICE, n_post)
            # each posting's idf, from the terms whose lists overlap a:b
            t0 = int(np.searchsorted(post_offsets, a, side="right")) - 1
            t1 = int(np.searchsorted(post_offsets, b, side="left"))
            idf = np.repeat(self.idf[t0:t1],
                            np.diff(np.clip(post_offsets[t0:t1 + 1], a, b)))
            np.multiply(self._impacts(slice(a, b)), idf,
                        out=self._impact[a:b])
            # each document's idfs, summed in term-id order
            np.add.at(idf_sums, post_docs[a:b], idf)
        # each document's mean idf over its distinct terms, one posting
        # each; 0.0 for a document with none
        n_terms = np.bincount(post_docs, minlength=self.doc_count)
        self.mean_idf = np.divide(idf_sums, n_terms,
                                  out=np.zeros(self.doc_count),
                                  where=n_terms > 0)

    def _impacts(self, span: slice) -> np.ndarray:
        """The BM25 impacts of postings ``span``,
        tf·(k1+1)/(tf+len_norm[doc])."""
        impacts = self.post_tfs[span].astype(np.float64)
        denom = self.len_norm[self.post_docs[span]]
        denom += impacts
        impacts *= self.params.k1 + 1.0
        impacts /= denom
        return impacts

    def _counted(self, span: slice, term: int, count: int) -> np.ndarray:
        """The contributions of postings ``span`` of ``term``'s list for the
        term counted ``count`` times, equal bit for bit to count·idf times
        each impact, the product a term-at-a-time loop forms.

        For a power of 2 that is the held contributions times ``count``,
        which moves only their exponent; most repeated terms are counted
        twice.  Otherwise the impacts are rebuilt as set-up builds them and
        multiplied by count·idf: the held contributions times 3, say, would
        round differently.
        """
        if count & (count - 1) == 0:
            return self._impact[span] * count
        contributions = self._impacts(span)
        contributions *= count * self.idf[term]
        return contributions

    # -- scoring ------------------------------------------------------------

    def term_ids(self, text: str) -> list[int]:
        """Term ids of the analyzed ``text``, in token order: the ids of
        ``self.analyzer(text)``'s terms that are in the vocabulary."""
        return [i for i in self.surface_terms(normalize(text)) if i is not None]

    def token_idfs(self, tokens) -> list[float]:
        """The idf of each normalized token, in order: 0.0 for a stopword,
        ``unseen_idf`` for a term outside the vocabulary."""
        idf, unseen, is_stopword = (self.idf, self.unseen_idf,
                                    self.analyzer.is_stopword)
        return [float(idf[tid]) if tid is not None
                else 0.0 if is_stopword(t) else unseen
                for t, tid in zip(tokens, self.surface_terms(tokens))]

    def surface_terms(self, tokens) -> list[int | None]:
        """The term id of each normalized surface token, in order: None for
        a stopword (``self.analyzer.is_stopword``) or a term outside the
        vocabulary.

        Each token this index has not seen is analyzed once by
        ``Analyzer.term``, as ``build_index`` analyzes it, into
        ``_term_of``.  That map lives as long as the index and holds one
        entry per distinct token seen.
        """
        term_of = self._term_of
        for t in set(tokens).difference(term_of):
            # a stopword's term, None, is in no vocabulary
            tid = self.vocab.get(self.analyzer.term(t))
            if tid is not None and self.terms[tid] == t:
                # key by the vocabulary's own str; a copy would live as
                # long as the index
                t = self.terms[tid]
            term_of[t] = tid
        return list(map(term_of.__getitem__, tokens))

    def term_overlap(self, tokens, docs) -> np.ndarray:
        """For each of the internal doc ids ``docs``, the share of the
        distinct terms of the normalized ``tokens`` whose posting list holds
        it; 0.0 when no token has a term.  One ``bincount`` over those
        terms' posting lists counts, for every document, how many of the
        lists hold it, since a list holds a document at most once.

        The terms are the distinct term ids of the tokens in the vocabulary
        (``surface_terms``), plus one per distinct token outside it that is
        not a stopword: such a term is on no list, so it counts in the
        share's denominator and never in its numerator.  A stopword counts
        in neither.
        """
        distinct = list(dict.fromkeys(tokens))
        term_ids, unseen = set(), 0
        is_stopword = self.analyzer.is_stopword
        for t, tid in zip(distinct, self.surface_terms(distinct)):
            if tid is not None:
                term_ids.add(tid)
            elif not is_stopword(t):
                unseen += 1
        n_terms = len(term_ids) + unseen
        if not n_terms:
            return np.zeros(len(docs))
        offset, post_docs = self.post_offsets.item, self.post_docs
        held = np.concatenate([post_docs[offset(t):offset(t + 1)]
                               for t in term_ids] or [post_docs[:0]])
        hits = np.bincount(held, minlength=self.doc_count)
        return hits[docs] / n_terms

    def docs_of(self, rl: RankedList) -> np.ndarray:
        """The internal doc id of each entry of ``rl``: its rows, when they
        index this index's pid table, as a search result's do; else its
        pids, looked up.  A pid the index lacks raises ValueError naming
        it."""
        if rl._table is self._pid_objs:
            return rl._rows
        try:
            return np.array([self._pid_to_doc[pid] for pid in rl.pids()],
                            dtype=np.intp)
        except KeyError as e:
            raise ValueError(f"passage {e.args[0]!r} is not in the index") \
                from None

    def pids_on_every_list(self, term_ids) -> list[str]:
        """Pids of the documents on the posting list of every term in
        ``term_ids`` (at least one)."""
        offsets, post_docs = self.post_offsets, self.post_docs
        lists = sorted((post_docs[offsets[t]:offsets[t + 1]]
                        for t in set(term_ids)), key=len)
        docs = lists[0]
        for other in lists[1:]:
            # posting lists ascend, so each doc is looked up by bisection
            at = np.searchsorted(other, docs)
            docs = docs[other[np.minimum(at, len(other) - 1)] == docs]
        return self._pid_objs[docs].tolist()

    def score_all(self, term_ids) -> np.ndarray:
        """Dense score vector over internal doc ids for a query's term ids:
        the kernel takes the distinct ids ascending, and their counts only
        when an id repeats."""
        distinct = sorted(set(term_ids))
        counts = None
        if len(distinct) < len(term_ids):
            counts = list(map(Counter(term_ids).__getitem__, distinct))
        return kernels.score_query(
            np.array(distinct, dtype=np.int64), counts, self.post_offsets,
            self.post_docs, self._impact, self._counted, self.doc_count)

    def search(self, query_text: str, k: int) -> RankedList:
        """Top-``k`` positively scoring passages for ``query_text``, ties to
        the smaller pid."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._top(self.score_all(self.term_ids(query_text)), 0.0, k)

    def _top(self, scores: np.ndarray, floor: float, k: int,
             cols: np.ndarray | None = None) -> RankedList:
        """The top ``k`` of the dense ``scores``, ties to the smaller pid,
        among the documents scoring above 0 and at least ``floor``; the
        caller knows that at least ``k`` documents score ``floor`` or more
        whenever ``floor`` is positive.  ``scores`` is left as it came.
        Position i of ``scores`` is document ``cols[i]``, or document i
        when ``cols`` is None; ``cols`` ascends (a packed set's columns),
        so the smaller position is the smaller pid.

        A list of at most 2 (RD's, for every candidate of a set) takes k
        ``argmax`` passes, each the first maximum, so the smaller pid, and
        stops at the first that is not above 0.  The floor only bounds
        where the top k lies, so this ignores it; the first pick is set to
        -inf for the second pass and restored after it.  A vector of no
        documents, which has no argmax, takes the general path.
        """
        if k <= 2 and len(scores):
            i = int(scores.argmax())
            first = float(scores[i])
            if not first > 0.0:
                at, top = [], []
            elif k == 1:
                at, top = [i], [first]
            else:
                scores[i] = -np.inf
                j = int(scores.argmax())
                second = float(scores[j])
                scores[i] = first
                at, top = (([i, j], [first, second]) if second > 0.0
                           else ([i], [first]))
            top = np.array(top, np.float64)
        else:
            pos = np.flatnonzero(scores >= floor if floor > 0.0
                                 else scores > 0.0)
            top = scores[pos]
            if len(pos) > k:
                # Only documents scoring at least the k-th largest score can
                # rank in the top k; the tie-stable sort below orders just
                # those.
                keep = top >= np.partition(top, len(top) - k)[len(top) - k]
                pos, top = pos[keep], top[keep]
            at = pos[np.lexsort((pos, -top))[:k]]
            top = scores[at]
        docs = at if cols is None else cols[at]
        return RankedList._of_rows(
            self._pid_objs, np.array(docs, _row_type(self.doc_count)), top)

    def search_set(self, question: str, expansions, k: int) -> "SetSearch":
        """Top-``k`` of "``question`` + expansion" for each text of
        ``expansions``, one list each (``lists``), scored by parts: a
        document's score is fl(S_q + S_e), where S_q is ``score_all`` of
        the question's term ids and S_e that of the expansion's, each part
        summed in term-id order.  Ties go to the smaller pid.  Every
        expanded query is searched here: a candidate's label, RD's top 2
        and a strategy's final list.  The set keeps the scores its lists
        were cut from until the caller drops it, so one expansion's deeper
        list takes no second search (``SetSearch.top``): RD selects on
        the top 2, and ``pipeline.choose`` cuts the chosen candidate's
        final list from them.

        The question is scored once.  Its k-th largest positive score θ is
        a floor for every expansion: S_e >= 0 and rounding is monotone, so
        each of the question's top k scores at least θ with any expansion,
        and every document of an expansion's top k, ties included, scores
        θ or more.  With fewer than k positive question scores θ is 0, and
        every positive document is selected from.

        One rule decides both choices that depend on the set's size: only
        when several expansions share the question may the set be packed
        and is θ taken, since it costs a pass over the question's scores;
        θ also needs k > 2, because a list of at most 2 is selected by
        ``argmax`` passes that read no floor (``_top``).  A packed set,
        whose question and expansions, one row each, times the postings of
        their distinct terms are at most ``doc_count``, is scored in one
        ``bincount`` (``_search_packed``), list for list and bit for bit
        the same.  That reads only ``post_offsets``, and it bounds the
        packed (rows × documents) score matrix by the size of one dense
        score vector.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        question_ids = self.term_ids(question)
        expansion_id_lists = [self.term_ids(e) for e in expansions]
        n = len(expansion_id_lists)
        if n > 1:
            terms = np.fromiter(set(question_ids).union(*expansion_id_lists),
                                dtype=np.int64)
            offsets = self.post_offsets
            postings = int((offsets[terms + 1] - offsets[terms]).sum())
            if (n + 1) * postings <= self.doc_count:
                return self._search_packed(question_ids, expansion_id_lists,
                                           k)
        return self._search_dense(question_ids, expansion_id_lists, k)

    def _search_dense(self, question_ids, expansion_id_lists,
                      k: int) -> "SetSearch":
        """``search_set`` of term ids over dense score vectors: the
        question's once, then each expansion's plus the question's,
        selected above the question's floor θ when there are several
        expansions and k > 2.  At k <= 2 ``_top`` reads no floor, so θ's
        pass would be waste.  The set keeps the question's vector."""
        question = self.score_all(question_ids)
        floor = 0.0
        if len(expansion_id_lists) > 1 and k > 2:
            positive = question[question > 0.0]
            if len(positive) >= k:
                floor = np.partition(positive, len(positive) - k)[
                    len(positive) - k]
        lists = []
        for ids in expansion_id_lists:
            scores = self.score_all(ids)
            scores += question
            lists.append(self._top(scores, floor, k))
        return SetSearch(self, lists, k, question=question,
                         expansion_ids=expansion_id_lists)

    def _search_packed(self, question_ids, expansion_id_lists,
                       k: int) -> "SetSearch":
        """``search_set`` of term ids in one ``bincount`` over the
        documents on the parts' posting lists.

        The question is one more row.  Each row's postings are gathered in
        its own term order, as ``score_all`` gathers them, and keyed apart
        from the others, so every row is summed exactly as its dense vector
        is; each expansion's row then adds the question's.  Each list owns
        its rows and scores, so keeping one keeps nothing else of the set
        alive.  The set keeps the expansions' score matrix and its columns.
        """
        # each row's distinct terms ascending with their counts, as
        # ``score_all`` counts them, from one sort of (row, term) keys
        term_id_lists = [question_ids, *expansion_id_lists]
        n, vocab_size = len(term_id_lists), len(self.terms)
        sizes = list(map(len, term_id_lists))
        keys = np.fromiter(chain.from_iterable(term_id_lists), dtype=np.int64,
                           count=sum(sizes))
        keys += np.repeat(np.arange(n, dtype=np.int64) * vocab_size, sizes)
        keys, weights = np.unique(keys, return_counts=True)
        term_row = keys // vocab_size
        term_ids = keys - term_row * vocab_size
        offsets = self.post_offsets
        docs, contributions = kernels.gather_postings(
            term_ids, weights.tolist(), offsets, self.post_docs,
            self._impact, self._counted)
        row_of = np.repeat(term_row, offsets[term_ids + 1] - offsets[term_ids])
        # columns follow doc id, so a tie goes to the smaller pid
        cols, col_of = np.unique(docs, return_inverse=True)
        width = len(cols)
        parts = np.bincount(row_of * width + col_of, contributions,
                            minlength=n * width).astype(
            np.float64, copy=False).reshape(n, width)
        scores = parts[1:] + parts[0]
        keep = scores > 0.0
        if width > k:
            # only a row's documents scoring at least its k-th largest score
            # can rank in its top k
            kth = np.partition(scores, width - k, axis=1)[:, width - k]
            keep &= scores >= kth[:, None]
        rows, at = np.nonzero(keep)
        top = scores[rows, at]
        order = np.lexsort((at, -top, rows))
        kept = np.bincount(rows, minlength=len(scores))
        rank = np.arange(len(order)) - np.repeat(np.cumsum(kept) - kept, kept)
        order = order[rank < k]
        found = cols[at[order]].astype(_row_type(self.doc_count))
        top = top[order]
        ends = np.cumsum(np.minimum(kept, k)).tolist()
        lists = [RankedList._of_rows(self._pid_objs, found[a:b].copy(),
                                     top[a:b].copy())
                 for a, b in zip([0, *ends], ends)]
        return SetSearch(self, lists, k, scores=scores, cols=cols)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "params": {
                "k1": self.params.k1, "b": self.params.b,
                "stemming": self.params.stemming,
                "stopwords": self.params.stopwords,
                "index_titles": self.params.index_titles,
            },
            "pids": self.pids,
            "terms": self.terms,
            "postings": int(len(self.post_docs)),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(self.post_offsets.astype("<i8").tobytes())
            fh.write(self.post_docs.astype("<i4").tobytes())
            fh.write(self.post_tfs.astype("<i4").tobytes())
            fh.write(self.doc_lengths.astype("<i4").tobytes())

    @classmethod
    def load(cls, path) -> "Index":
        """Read a file written by ``save``.

        A damaged file raises ``IndexError_`` naming the path and the check
        it failed; nothing is loaded from it.
        """
        def fail(what: str) -> NoReturn:
            raise IndexError_(f"{path}: corrupt index: {what}")

        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise IndexError_(f"{path}: not an index file (bad magic)")

            file_size = os.fstat(fh.fileno()).st_size

            def section(name: str, size: int) -> bytes:
                # Sizes come from the file, so check them before reading:
                # read(size) allocates size bytes up front.
                have = file_size - fh.tell()
                if size > have:
                    fail(f"{name} truncated ({have} of {brief(size)} bytes)")
                return fh.read(size)

            (hlen,) = struct.unpack("<Q", section("header length", 8))
            try:
                header = json.loads(section("header", hlen))
                pids, terms = header["pids"], header["terms"]
                n_post = header["postings"]
                params = Bm25Params(**header["params"])
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                fail(f"bad header ({exc})")
            if not (isinstance(pids, list) and isinstance(terms, list)
                    and set(map(type, pids)) | set(map(type, terms)) <= {str}):
                fail("pids and terms must be lists of strings")
            if type(n_post) is not int or n_post < 0:
                fail(f"postings must be a non-negative int, got "
                     f"{brief(n_post)}")
            n_terms, n_docs = len(terms), len(pids)
            offsets = np.frombuffer(section("offsets", 8 * (n_terms + 1)),
                                    dtype="<i8")
            docs = np.frombuffer(section("doc ids", 4 * n_post), dtype="<i4")
            tfs = np.frombuffer(section("tfs", 4 * n_post), dtype="<i4")
            dls = np.frombuffer(section("doc lengths", 4 * n_docs), dtype="<i4")
            if fh.read(1):
                fail("trailing bytes after the last section")

        # doc ids follow ascending pid, so ties go to the smaller pid, and
        # term ids follow the sorted vocabulary
        for name, items in (("pids", pids), ("terms", terms)):
            for a, b in zip(items, items[1:]):
                if a >= b:
                    fail(f"duplicate {name} ({a!r})" if a == b else
                         f"{name} not ascending ({a!r} before {b!r})")
        if offsets[0] != 0:
            fail(f"offsets start at {offsets[0]}, not 0")
        if np.any(np.diff(offsets) < 0):
            fail("offsets decrease")
        if offsets[-1] != n_post:
            fail(f"offsets end at {offsets[-1]}, not at postings={n_post}")
        if n_post and (docs.min() < 0 or docs.max() >= n_docs):
            fail(f"doc id outside [0, {n_docs})")
        rising = np.diff(docs) > 0
        heads = offsets[1:-1]
        rising[heads[(heads > 0) & (heads < n_post)] - 1] = True
        if not rising.all():
            fail("doc ids not strictly increasing within a posting list")
        if np.any(tfs < 1):
            fail("tf below 1")
        if np.any(np.bincount(docs, weights=tfs, minlength=n_docs) != dls):
            fail("doc lengths differ from the per-doc tf sums")
        # On a little-endian host the dtypes already match, so the arrays
        # stay read-only views over the bytes read, not second copies.
        return cls(pids, terms, offsets.astype(np.int64, copy=False),
                   docs.astype(np.int32, copy=False),
                   tfs.astype(np.int32, copy=False),
                   dls.astype(np.int32, copy=False), params)


class SetSearch:
    """A candidate set's search by parts (``Index.search_set``): each
    expansion's top-k list, ``lists``, and the scores they were cut from,
    so that one expansion's deeper list (``top``) takes no second search
    of the set.

    A packed set keeps its (expansions × columns) score matrix and the
    doc id of each column; a dense set keeps the question's score vector
    and each expansion's term ids.  That is no more than the search
    allocated; a caller drops the set once it has the list it needs.
    """

    __slots__ = ("lists", "_index", "_k", "_scores", "_cols", "_question",
                 "_expansion_ids")

    def __init__(self, index: Index, lists: list[RankedList], k: int, *,
                 scores=None, cols=None, question=None, expansion_ids=None):
        self.lists = lists
        self._index, self._k = index, k
        self._scores, self._cols = scores, cols
        self._question, self._expansion_ids = question, expansion_ids

    def top(self, i: int, k: int) -> RankedList:
        """Expansion ``i``'s top ``k``, equal bit for bit to
        ``Index.search_set(question, [expansions[i]], k).lists[0]``: a
        prefix of its list when ``k`` is no deeper than the set's, else
        ``_top`` of its scores, a packed set's row or, for a dense set,
        the expansion's vector plus the kept question's.  No floor is
        read: the set's θ bounds only its own depth."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= self._k:
            return self.lists[i].head(k)
        index = self._index
        if self._cols is not None:
            return index._top(self._scores[i], 0.0, k, self._cols)
        scores = index.score_all(self._expansion_ids[i])
        scores += self._question
        return index._top(scores, 0.0, k)


def build_index(store: PassageStore, params: Bm25Params | None = None) -> Index:
    if len(store) == 0:
        raise IndexError_("cannot index an empty store")
    params = params or Bm25Params()
    analyzer = params.analyzer()

    # Python work is per document and per distinct surface token: each one
    # is analyzed once, into a provisional id (None for a stopword), and
    # every kept token becomes one int in a typed buffer.  Provisional ids
    # follow set iteration order, which varies from run to run; they are
    # mapped to sorted-vocabulary ids before anything else sees them.
    pids = sorted(p.id for p in store)
    provisional: dict[str, int | None] = {}  # surface token -> provisional id
    id_terms: list[str] = []  # provisional id -> term
    token_ids = array("i")  # every token's provisional id, in doc order
    lengths = array("i")
    for pid in pids:
        p = store.get(pid)
        body = f"{p.title} {p.text}" if params.index_titles and p.title else p.text
        surface = normalize(body)
        for t in set(surface).difference(provisional):
            term = analyzer.term(t)
            if term is None:
                provisional[t] = None
            else:
                provisional[t] = len(id_terms)
                id_terms.append(term)
        ids = [i for i in map(provisional.__getitem__, surface)
               if i is not None]
        token_ids.extend(ids)
        lengths.append(len(ids))
    del provisional

    terms = sorted(set(id_terms))
    rank = {t: i for i, t in enumerate(terms)}
    to_sorted = np.fromiter(map(rank.__getitem__, id_terms), dtype=np.int32,
                            count=len(id_terms))
    del id_terms, rank  # not held through the sort, the build's peak
    doc_lengths = np.frombuffer(lengths, dtype=np.intc).astype(np.int32)
    tok_terms = to_sorted[np.frombuffer(token_ids, dtype=np.intc)]
    del token_ids

    # A stable sort by term keeps each term's tokens in doc order, so every
    # run of one (term, doc) pair is one posting, its length the tf, and doc
    # ids ascend within each posting list.
    order = np.argsort(tok_terms, kind="stable")
    tok_terms = tok_terms[order]
    tok_docs = np.repeat(np.arange(len(pids), dtype=np.int32), doc_lengths)[order]
    del order
    run_start = np.ones(len(tok_terms), dtype=bool)
    run_start[1:] = ((tok_terms[1:] != tok_terms[:-1])
                     | (tok_docs[1:] != tok_docs[:-1]))
    starts = np.flatnonzero(run_start)
    post_docs = tok_docs[starts]
    post_tfs = np.diff(starts, append=len(tok_terms)).astype(np.int32)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tok_terms[starts], minlength=len(terms)),
              out=offsets[1:])
    return Index(pids, terms, offsets, post_docs, post_tfs, doc_lengths, params)
