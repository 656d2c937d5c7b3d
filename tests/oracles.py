"""Independent brute-force checkers the fast paths are verified against."""

import math
from collections import Counter

import numpy as np

from expandrank.index import Bm25Params, Index, IndexError_, RankedList
from expandrank.text import normalize


_analysis_cache = {}


def _analyze_store(store, params):
    """Token counts per document, computed directly from the raw passages.

    Memoized per (store, params) pair so repeated queries against the same
    corpus do not redo the tokenization; the statistics are still derived
    with no code shared with the inverted index.
    """
    key = (id(store), params)
    cached = _analysis_cache.get(key)
    if cached is not None:
        return cached
    analyzer = params.analyzer()
    docs = {}
    for p in sorted(store, key=lambda p: p.id):
        body = f"{p.title} {p.text}" if params.index_titles and p.title else p.text
        docs[p.id] = Counter(analyzer(body))
    _analysis_cache[key] = docs
    return docs


def brute_bm25_scores(store, params, query_text):
    """Score every document by direct evaluation of the BM25 formula."""
    analyzer = params.analyzer()
    docs = _analyze_store(store, params)
    n = len(docs)
    lengths = {pid: sum(c.values()) for pid, c in docs.items()}
    avgdl = sum(lengths.values()) / n if n else 1.0
    if avgdl == 0:
        avgdl = 1.0

    query_counts = Counter(analyzer(query_text))
    df = {t: sum(1 for c in docs.values() if t in c) for t in query_counts}
    k1, b = params.k1, params.b
    scores = {}
    for pid, counts in docs.items():
        ln = k1 * (1.0 - b + b * lengths[pid] / avgdl)
        total = 0.0
        for term in sorted(query_counts):
            tf = counts.get(term, 0)
            if tf == 0 or df[term] == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            total += query_counts[term] * idf * (
                (float(tf) * (k1 + 1.0)) / (float(tf) + ln)
            )
        scores[pid] = total
    return scores


def brute_search(store, params, query_text, k):
    scores = brute_bm25_scores(store, params, query_text)
    ranked = sorted(
        ((pid, s) for pid, s in scores.items() if s > 0),
        key=lambda e: (-e[1], e[0]),
    )
    return ranked[:k]


def reference_score_all(index, tokens):
    """The term-at-a-time scalar loop ``Index.score_all`` must equal bit for
    bit: for each distinct query term, in term-id order, add
    count·idf·tf(k1+1)/(tf+len_norm[doc]) to each of its documents."""
    k1p1 = index.params.k1 + 1.0
    counts = Counter(t for t in tokens if t in index.vocab)
    scores = np.zeros(index.doc_count, dtype=np.float64)
    for tid in sorted(index.vocab[t] for t in counts):
        w = float(counts[index.terms[tid]]) * index.idf[tid]
        for p in range(index.post_offsets[tid], index.post_offsets[tid + 1]):
            d = index.post_docs[p]
            tf = float(index.post_tfs[p])
            scores[d] += w * ((tf * k1p1) / (tf + index.len_norm[d]))
    return scores


def reference_search(index, query_text, k):
    """(pid, score) pairs of ``Index.search`` from a full tie-stable sort of
    every positive document: score descending, then doc id (= pid order)."""
    scores = reference_score_all(index, index.analyzer(query_text))
    pos = np.flatnonzero(scores > 0.0)
    docs = pos[np.lexsort((pos, -scores[pos]))[:k]]
    return [(index.pids[d], float(scores[d])) for d in docs]


def reference_build_index(store, params=None):
    """The dict-of-lists index builder: every token analyzed on its own, each
    posting a (doc, tf) tuple.  ``build_index`` must match it array for array
    and byte for byte."""
    if len(store) == 0:
        raise IndexError_("cannot index an empty store")
    params = params or Bm25Params()
    analyzer = params.analyzer()

    pids = sorted(p.id for p in store)
    doc_lengths = np.zeros(len(pids), dtype=np.int32)
    term_postings = {}
    for doc, pid in enumerate(pids):
        p = store.get(pid)
        body = f"{p.title} {p.text}" if params.index_titles and p.title else p.text
        tokens = analyzer(body)
        doc_lengths[doc] = len(tokens)
        for term, tf in sorted(Counter(tokens).items()):
            term_postings.setdefault(term, []).append((doc, tf))

    terms = sorted(term_postings)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    docs, tfs = [], []
    for i, term in enumerate(terms):
        plist = term_postings[term]  # doc ids already ascending by construction
        offsets[i + 1] = offsets[i] + len(plist)
        docs.extend(d for d, _ in plist)
        tfs.extend(t for _, t in plist)
    return Index(pids, terms, offsets,
                 np.array(docs, dtype=np.int32), np.array(tfs, dtype=np.int32),
                 doc_lengths, params)


def brute_term_counts(store, params):
    """Term -> {pid: tf} map by direct counting."""
    analyzer = params.analyzer()
    out = {}
    for p in store:
        for term, tf in Counter(analyzer(p.text)).items():
            out.setdefault(term, {})[p.id] = tf
    return out


def brute_contains(passage_text, answer):
    """Substring check over the space-joined normalized token streams, on
    token boundaries."""
    doc = " ".join(normalize(passage_text))
    needle = " ".join(normalize(answer))
    if not needle:
        return False
    return f" {needle} " in f" {doc} "


def reference_passage_features(index, store, question, pid, retrieval_score):
    """Passage-reranker features computed from scratch on every call, the
    mean idf summed over the passage's distinct tokens in sorted order."""
    tokens = normalize(store.get(pid).text)
    qt = set(normalize(question))
    overlap = len(qt & set(tokens)) / len(qt) if qt else 0.0
    idfs = []
    for t in sorted(set(tokens)):
        stemmed = index.analyzer(t)
        if stemmed and stemmed[0] in index.vocab:
            idfs.append(float(index.idf[index.vocab[stemmed[0]]]))
    mean_idf = sum(idfs) / len(idfs) if idfs else 0.0
    return np.array([retrieval_score, overlap, mean_idf, float(len(tokens)),
                     1.0])


def reference_fuse(lists, k):
    """Round-robin fusion over (pid, score) tuples, one cursor per list."""
    seen = set()
    out = []
    cursors = [0] * len(lists)
    while len(out) < k and any(
        cursors[li] < len(rl.entries) for li, rl in enumerate(lists)
    ):
        for li, rl in enumerate(lists):
            if len(out) >= k:
                break
            i = cursors[li]
            if i >= len(rl.entries):
                continue
            cursors[li] = i + 1
            pid = rl.entries[i][0]
            if pid not in seen:
                seen.add(pid)
                out.append((pid, 1.0 / (len(out) + 1)))
    return RankedList(qid=lists[0].qid, entries=out, tag="fusion")
