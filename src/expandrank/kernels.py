"""Scoring kernel for the inverted index.

A posting's BM25 contribution for a query term counted once,
idf·tf·(k1+1)/(tf+len_norm[doc]), is fixed once the index is built, so
``Index`` computes it once and holds it in one array.  Scoring a query is
then one ``concatenate`` of its terms' posting slices and one
``np.bincount``.  A term counted once takes its slice as it is: its
weight, 1.0·idf, is idf itself, so the product is the one a term-at-a-time
loop forms.  A term counted c ≠ 1 times takes ``Index._counted``'s slice,
c·idf times each impact: the held slice times c when c is a power of 2,
else the impacts rebuilt, since the held contributions times 3, say, would
round differently.
``bincount`` adds in array order, so every document's score is summed in
query-term order, exactly as a term-at-a-time loop would sum it.

``Index.score_all`` passes the kernel a query's distinct term ids,
ascending, as an int64 array, and a count list only when a term repeats:
None says that every term is counted once, so a query of distinct terms
takes no ``Counter`` and reads no count per term.

An expanded query, "question + expansion", is scored by parts, by the
rule ``Index.search_set`` states: each part is summed as above over
its own terms.  Packed, the question is one more row of a single
``bincount`` over the same gather, summed the same way.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment report; there is one kernel, in numpy.
USING_NUMBA = False


def gather_postings(term_ids, term_counts, post_offsets, post_docs,
                    contributions, counted) -> tuple[np.ndarray, np.ndarray]:
    """The postings of ``term_ids``, an int64 array, term by term: their
    docs and their contributions to the score.

    ``term_counts`` are the terms' query counts, ints, or None when each
    term is counted once.  ``contributions`` holds each posting's
    contribution for its term counted once; a term counted c ≠ 1 times
    takes ``counted(span, term, c)``, the contributions of its postings
    ``span`` for the term counted c times.  ``term_ids`` may hold several
    queries' terms one after the other; each query's postings then come
    in that query's own term order.  Each term's list is sliced by its
    two offsets, read as Python ints.
    """
    ids = term_ids.tolist()
    offset = post_offsets.item
    spans = [slice(offset(t), offset(t + 1)) for t in ids]
    docs = np.concatenate([post_docs[span] for span in spans]
                          or [post_docs[:0]])
    if term_counts is None:
        weights = [contributions[span] for span in spans]
    else:
        weights = [contributions[span] if c == 1 else counted(span, t, c)
                   for span, t, c in zip(spans, ids, term_counts)]
    return docs, np.concatenate(weights or [contributions[:0]])


def score_query(term_ids, term_counts, post_offsets, post_docs,
                contributions, counted, doc_count) -> np.ndarray:
    """Dense BM25 score vector for one analyzed query.

    ``term_ids`` is an int64 array of the query's distinct term ids,
    ascending; ``term_counts`` is None when no term repeats, else each
    term's query count, in the same order.
    """
    docs, weights = gather_postings(term_ids, term_counts, post_offsets,
                                    post_docs, contributions, counted)
    # bincount of no postings counts, in int64, whatever the weights' type
    return np.bincount(docs, weights, minlength=doc_count).astype(
        np.float64, copy=False)
