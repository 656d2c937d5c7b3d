"""Scoring kernel for the inverted index.

Each posting's BM25 impact, tf·(k1+1)/(tf+len_norm[doc]), is fixed once the
index is built, so ``Index`` computes it once.  Scoring a query is then one
``concatenate`` of its terms' posting slices and one ``np.bincount``.
``bincount`` adds in array order, so every document's score is summed in
query-term order, exactly as a term-at-a-time loop would sum it.
``Index.search_many`` sums several queries in one ``bincount`` over the
same gather, so each of its rows is summed the same way.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment report; there is one kernel, in numpy.
USING_NUMBA = False


def gather_postings(term_ids, term_weights, post_offsets, post_docs, impacts,
                    idf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The postings of ``term_ids``, term by term: their docs, their impacts
    times their term's weight·idf, and each term's posting count.

    ``term_ids`` may hold several queries' terms one after the other; each
    query's postings then come in that query's own term order.
    """
    starts, ends = post_offsets[term_ids], post_offsets[term_ids + 1]
    spans = [slice(s, e) for s, e in zip(starts, ends)] or [slice(0, 0)]
    docs = np.concatenate([post_docs[span] for span in spans])
    weights = np.concatenate([impacts[span] for span in spans])
    counts = ends - starts
    weights *= np.repeat(term_weights * idf[term_ids], counts)
    return docs, weights, counts


def score_query(term_ids, term_weights, post_offsets, post_docs, impacts, idf,
                doc_count) -> np.ndarray:
    """Dense BM25 score vector for one analyzed query.

    ``term_ids`` are distinct; ``term_weights`` are their query counts.
    """
    docs, weights, _ = gather_postings(term_ids, term_weights, post_offsets,
                                       post_docs, impacts, idf)
    # bincount of no postings counts, in int64, whatever the weights' type
    return np.bincount(docs, weights, minlength=doc_count).astype(
        np.float64, copy=False)
