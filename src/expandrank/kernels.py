"""Scoring kernels for the inverted index.

The posting-list accumulation loop dominates retrieval time, so it is JIT
compiled with numba when the optional ``numba`` extra is installed.  Setting
``EXPANDRANK_NO_NUMBA=1`` (or numba being unavailable) selects a pure-numpy
fallback that computes the identical expression term by term.
``benchmarks/bench_kernels.py`` compares the two.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("EXPANDRANK_NO_NUMBA", "").lower() in ("1", "true", "yes")


USING_NUMBA = False
if not _numba_disabled():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # pragma: no cover
        USING_NUMBA = False


def _accumulate_py(term_ids, term_weights, post_offsets, post_docs, post_tfs,
                   len_norm, k1p1, idf, scores):
    for t in range(term_ids.shape[0]):
        tid = term_ids[t]
        w = term_weights[t] * idf[tid]
        start = post_offsets[tid]
        end = post_offsets[tid + 1]
        for p in range(start, end):
            d = post_docs[p]
            tf = post_tfs[p]
            scores[d] += w * ((tf * k1p1) / (tf + len_norm[d]))


def _accumulate_np(term_ids, term_weights, post_offsets, post_docs, post_tfs,
                   len_norm, k1p1, idf, scores):
    for t in range(term_ids.shape[0]):
        tid = term_ids[t]
        w = term_weights[t] * idf[tid]
        start = post_offsets[tid]
        end = post_offsets[tid + 1]
        docs = post_docs[start:end]
        tf = post_tfs[start:end]
        scores[docs] += w * ((tf * k1p1) / (tf + len_norm[docs]))


if USING_NUMBA:
    accumulate_scores = njit(cache=True)(_accumulate_py)
else:
    accumulate_scores = _accumulate_np


def score_query(term_ids, term_weights, post_offsets, post_docs, post_tfs,
                len_norm, k1p1, idf, doc_count) -> np.ndarray:
    """Dense BM25 score vector for one analyzed query."""
    scores = np.zeros(doc_count, dtype=np.float64)
    if term_ids.shape[0]:
        accumulate_scores(term_ids, term_weights, post_offsets, post_docs,
                          post_tfs, len_norm, k1p1, idf, scores)
    return scores
