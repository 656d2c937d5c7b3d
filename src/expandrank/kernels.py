"""Scoring kernel for the inverted index.

Each posting's BM25 impact, tf·(k1+1)/(tf+len_norm[doc]), is fixed once the
index is built, so ``Index`` computes it once.  Scoring a query is then one
``concatenate`` of its terms' posting slices and one ``np.bincount``.
``bincount`` adds in array order, so every document's score is summed in
query-term order, exactly as a term-at-a-time loop would sum it.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment report; there is one kernel, in numpy.
USING_NUMBA = False


def score_query(term_ids, term_weights, post_offsets, post_docs, impacts, idf,
                doc_count) -> np.ndarray:
    """Dense BM25 score vector for one analyzed query.

    ``term_ids`` are distinct; ``term_weights`` are their query counts.
    """
    starts, ends = post_offsets[term_ids], post_offsets[term_ids + 1]
    spans = [slice(s, e) for s, e in zip(starts, ends)] or [slice(0, 0)]
    docs = np.concatenate([post_docs[span] for span in spans])
    weights = np.concatenate([impacts[span] for span in spans])
    weights *= np.repeat(term_weights * idf[term_ids], ends - starts)
    return np.bincount(docs, weights, minlength=doc_count)
