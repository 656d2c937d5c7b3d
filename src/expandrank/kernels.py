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
                    contributions, counted) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """The postings of ``term_ids``, term by term: their docs, their
    contributions to the score, and each term's posting count.

    ``term_counts`` are the terms' query counts, ints.  ``contributions``
    holds each posting's contribution for its term counted once; a term
    counted c ≠ 1 times takes ``counted(span, term, c)``, the contributions
    of its postings ``span`` for the term counted c times.  ``term_ids``
    may hold several queries' terms one after the other; each query's
    postings then come in that query's own term order.
    """
    starts, ends = post_offsets[term_ids], post_offsets[term_ids + 1]
    spans = [slice(s, e) for s, e in zip(starts.tolist(), ends.tolist())]
    docs = np.concatenate([post_docs[span] for span in spans]
                          or [post_docs[:0]])
    weights = np.concatenate(
        [contributions[span] if c == 1 else counted(span, t, c)
         for span, t, c in zip(spans, term_ids.tolist(), term_counts)]
        or [contributions[:0]])
    return docs, weights, ends - starts


def score_query(term_ids, term_counts, post_offsets, post_docs,
                contributions, counted, doc_count) -> np.ndarray:
    """Dense BM25 score vector for one analyzed query.

    ``term_ids`` are distinct; ``term_counts`` are their query counts.
    """
    docs, weights, _ = gather_postings(term_ids, term_counts, post_offsets,
                                       post_docs, contributions, counted)
    # bincount of no postings counts, in int64, whatever the weights' type
    return np.bincount(docs, weights, minlength=doc_count).astype(
        np.float64, copy=False)
