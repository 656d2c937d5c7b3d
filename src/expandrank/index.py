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
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import kernels
from .corpus import PassageStore
from .text import Analyzer, normalize

MAGIC = b"XRIDX001"


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
        if not math.isfinite(self.k1):
            raise IndexError_(f"k1 must be finite, got {self.k1}")
        if self.k1 <= 0:
            raise IndexError_(f"k1 must be positive, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise IndexError_(f"b must be in [0, 1], got {self.b}")

    def analyzer(self) -> Analyzer:
        return Analyzer(stemming=self.stemming, stopwords=self.stopwords)


class RankedList:
    """Ordered (pid, score) pairs; the common currency of retrieval and fusion.

    Stored as two columns: a list of pid strings (for search results, the
    strings of ``Index.pids`` themselves) and one float64 per entry.
    ``entries`` builds the pairs on demand; readers on a hot path take
    ``pids()`` and ``scores`` instead.
    """

    __slots__ = ("qid", "tag", "_pids", "scores")

    def __init__(self, qid: str, entries=(), tag: str = "run"):
        self.qid = qid
        self.tag = tag
        entries = list(entries)  # read once: it may be an iterator
        self._pids: list[str] = [pid for pid, _ in entries]
        self.scores: np.ndarray = np.array([s for _, s in entries],
                                           dtype=np.float64)

    @classmethod
    def from_columns(cls, qid: str, pids: list[str], scores,
                     tag: str = "run") -> "RankedList":
        """A list that takes ``pids`` as is; ``scores`` aligns with it."""
        scores = np.asarray(scores, dtype=np.float64)
        if len(pids) != len(scores):
            raise ValueError(f"{len(pids)} pids but {len(scores)} scores")
        rl = cls.__new__(cls)
        rl.qid, rl.tag, rl._pids, rl.scores = qid, tag, pids, scores
        return rl

    @property
    def entries(self) -> list[tuple[str, float]]:
        return list(zip(self._pids, self.scores.tolist()))

    def __len__(self) -> int:
        return len(self._pids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.qid == other.qid and self.tag == other.tag
                and self._pids == other._pids
                and self.scores.tolist() == other.scores.tolist())

    __hash__ = None

    def __repr__(self) -> str:
        return (f"RankedList(qid={self.qid!r}, entries={self.entries!r}, "
                f"tag={self.tag!r})")

    def pids(self) -> list[str]:
        return list(self._pids)

    def validate(self) -> None:
        if np.any(self.scores[:-1] < self.scores[1:]):
            raise ValueError(f"scores not non-increasing in list {self.qid!r}")
        if len(set(self._pids)) != len(self._pids):
            raise ValueError(f"duplicate pids in list {self.qid!r}")


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

        self.doc_count = len(pids)
        self.avg_doc_length = float(doc_lengths.mean()) if len(pids) else 0.0
        self._pid_to_doc = {pid: i for i, pid in enumerate(pids)}
        # the same strs as ``pids``; ``tolist`` of a slice is an exact-size
        # list, where a comprehension leaves growth slack in every result
        self._pid_objs = np.array(pids, dtype=object)

        n = float(self.doc_count)
        df = np.diff(post_offsets).astype(np.float64)
        self.idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        avgdl = self.avg_doc_length if self.avg_doc_length > 0 else 1.0
        dl = doc_lengths.astype(np.float64)
        self.len_norm = params.k1 * (1.0 - params.b + params.b * dl / avgdl)
        # Each posting's BM25 impact tf·(k1+1)/(tf+len_norm[doc]), computed
        # in place so set-up holds one temporary of the postings' size.
        self._impact = post_tfs.astype(np.float64)
        denom = self.len_norm[post_docs]
        denom += self._impact
        self._impact *= params.k1 + 1.0
        self._impact /= denom

    # -- scoring ------------------------------------------------------------

    def _query_terms(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        counts = Counter(t for t in tokens if t in self.vocab)
        items = sorted((self.vocab[t], c) for t, c in counts.items())
        tids = np.array([t for t, _ in items], dtype=np.int64)
        weights = np.array([float(c) for _, c in items], dtype=np.float64)
        return tids, weights

    def score_all(self, tokens) -> np.ndarray:
        """Dense score vector over internal doc ids for an analyzed query."""
        tids, weights = self._query_terms(tokens)
        return kernels.score_query(tids, weights, self.post_offsets,
                                   self.post_docs, self._impact, self.idf,
                                   self.doc_count)

    def search(self, query_text: str, k: int, qid: str = "q",
               tag: str = "run") -> RankedList:
        """``search_tokens`` of the analyzed ``query_text``."""
        return self.search_tokens(self.analyzer(query_text), k, qid, tag)

    def search_tokens(self, tokens, k: int, qid: str = "q",
                      tag: str = "run") -> RankedList:
        """Top-``k`` positively scoring passages for an analyzed query, ties
        to the smaller pid."""
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self.score_all(tokens)
        pos = np.flatnonzero(scores > 0.0)
        top = scores[pos]
        if len(pos) > k:
            # Only documents scoring at least the k-th largest score can
            # rank in the top k; the tie-stable sort below orders just those.
            keep = top >= np.partition(top, len(top) - k)[len(top) - k]
            pos, top = pos[keep], top[keep]
        docs = pos[np.lexsort((pos, -top))[:k]]
        return RankedList.from_columns(qid, self._pid_objs[docs].tolist(),
                                       scores[docs], tag)

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
                    fail(f"{name} truncated ({have} of {size} bytes)")
                return fh.read(size)

            (hlen,) = struct.unpack("<Q", section("header length", 8))
            try:
                header = json.loads(section("header", hlen))
                pids, terms = header["pids"], header["terms"]
                n_post = header["postings"]
                params = Bm25Params(**header["params"])
            except (ValueError, KeyError, TypeError) as exc:
                fail(f"bad header ({exc})")
            if not (isinstance(pids, list) and isinstance(terms, list)
                    and set(map(type, pids)) | set(map(type, terms)) <= {str}):
                fail("pids and terms must be lists of strings")
            if type(n_post) is not int or n_post < 0:
                fail(f"postings must be a non-negative int, got {n_post!r}")
            n_terms, n_docs = len(terms), len(pids)
            offsets = np.frombuffer(section("offsets", 8 * (n_terms + 1)),
                                    dtype="<i8")
            docs = np.frombuffer(section("doc ids", 4 * n_post), dtype="<i4")
            tfs = np.frombuffer(section("tfs", 4 * n_post), dtype="<i4")
            dls = np.frombuffer(section("doc lengths", 4 * n_docs), dtype="<i4")
            if fh.read(1):
                fail("trailing bytes after the last section")

        if len(set(pids)) != n_docs:
            fail("duplicate pids")
        if len(set(terms)) != n_terms:
            fail("duplicate terms")
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
            term = analyzer(t)  # [] for a stopword, else one term
            provisional[t] = len(id_terms) if term else None
            id_terms.extend(term)
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
