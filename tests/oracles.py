"""Independent brute-force checkers the fast paths are verified against."""

import math
import re
import unicodedata
from collections import Counter

import numpy as np

from expandrank.index import Bm25Params, Index, IndexError_, RankedList
from expandrank.reranker import select_best


def reference_normalize(raw):
    """The tokenizer's definition: the maximal ``[0-9a-z]+`` runs of the
    NFKC-normalized, lowercased text, found by a regex on every text."""
    return re.findall(r"[0-9a-z]+", unicodedata.normalize("NFKC", raw).lower())


def reference_analyze(analyzer, raw):
    """``analyzer``'s terms of ``raw``: each token of
    ``reference_normalize`` through ``Analyzer.term``, stopwords dropped."""
    return [t for t in map(analyzer.term, reference_normalize(raw))
            if t is not None]


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
        docs[p.id] = Counter(reference_analyze(analyzer, body))
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

    query_counts = Counter(reference_analyze(analyzer, query_text))
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


def reference_term_ids(index, text):
    """The term ids ``Index.term_ids`` must return: ``text`` analyzed whole,
    each term in the vocabulary looked up, in token order."""
    return [index.vocab[t] for t in reference_analyze(index.analyzer, text)
            if t in index.vocab]


def reference_score_all(index, term_ids):
    """The term-at-a-time scalar loop ``Index.score_all`` must equal bit for
    bit: for each distinct query term, in term-id order, add
    count·idf·tf(k1+1)/(tf+len_norm[doc]) to each of its documents."""
    k1p1 = index.params.k1 + 1.0
    counts = Counter(term_ids)
    scores = np.zeros(index.doc_count, dtype=np.float64)
    for tid in sorted(counts):
        w = float(counts[tid]) * index.idf[tid]
        for p in range(index.post_offsets[tid], index.post_offsets[tid + 1]):
            d = index.post_docs[p]
            tf = float(index.post_tfs[p])
            scores[d] += w * ((tf * k1p1) / (tf + index.len_norm[d]))
    return scores


def reference_top(index, scores, k):
    """(pid, score) pairs of the top ``k`` of a dense score vector, from a
    full tie-stable sort of every positive document: score descending,
    then doc id (= pid order)."""
    pos = np.flatnonzero(scores > 0.0)
    docs = pos[np.lexsort((pos, -scores[pos]))[:k]]
    return [(index.pids[d], float(scores[d])) for d in docs]


def reference_search(index, query_text, k):
    """(pid, score) pairs of ``Index.search``."""
    return reference_top(
        index, reference_score_all(index, reference_term_ids(index, query_text)),
        k)


def reference_parts_scores(index, question_ids, expansion_ids):
    """The score of "question + expansion" by parts, which
    ``Index.search_set`` must equal bit for bit: the question's loop
    sum plus the expansion's, fl(S_q + S_e), one addition per document."""
    return (reference_score_all(index, question_ids)
            + reference_score_all(index, expansion_ids))


def reference_expanded_search(index, question, expansion, k):
    """(pid, score) pairs of the top ``k`` of "question + expansion" by
    parts, which ``Index.search_set`` must equal for each expansion of a
    set, and ``SetSearch.top`` at any depth; an empty ``expansion`` gives
    the bare question's search."""
    return reference_top(index, reference_parts_scores(
        index, reference_term_ids(index, question),
        reference_term_ids(index, expansion)), k)


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
        tokens = reference_analyze(analyzer, body)
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
        for term, tf in Counter(reference_analyze(analyzer, p.text)).items():
            out.setdefault(term, {})[p.id] = tf
    return out


def reference_contains_answer(passage_text, answers):
    """True iff some answer's normalized tokens equal the passage's tokens at
    some position, compared one token window at a time."""
    doc = reference_normalize(passage_text)
    for answer in answers:
        needle = reference_normalize(answer)
        if not needle:
            continue
        n = len(needle)
        for i in range(len(doc) - n + 1):
            if doc[i : i + n] == needle:
                return True
    return False


def reference_strategy_query(spec, index, store, qa, cs, model, featurizer):
    """The parts (question, expansion) of the query ``spec``'s strategy
    issues for one question, from the candidate set ``cs`` as given (no cap
    applied); the expansion is None for a bare search.

    ``oracle`` labels each candidate by a plain top-``k_retrieve`` search of
    its expanded query by parts, the rank of the first passage that holds
    an answer, or ``k_retrieve + 1``; the first candidate of the lowest
    label wins.
    """
    q = qa.question
    if spec.kind == "bm25":
        return q, None
    if spec.kind == "concat":
        return q, " ".join(c.text for c in cs.candidates)
    if spec.kind == "greedy":
        chosen = cs.candidates[0]
    elif spec.kind == "oracle":
        def label(c):
            entries = reference_expanded_search(index, q, c.text,
                                                spec.k_retrieve)
            return next((rank for rank, (pid, _) in enumerate(entries, 1)
                         if reference_contains_answer(store.get(pid).text,
                                                      qa.answers)),
                        spec.k_retrieve + 1)
        chosen = min(cs.candidates, key=label)
    else:  # ear_ri / ear_rd
        chosen = cs.candidates[select_best(model, q, cs, featurizer)[0]]
    return q, chosen.text


def reference_passage_features(index, store, question, pid, retrieval_score):
    """Passage-reranker features computed from scratch on every call, from
    the passage's analysis, its title included under ``index_titles``.

    The overlap analyzes each distinct normalized question token alone: a
    stopword is no term, a term in the vocabulary counts once however many
    tokens stem to it, and one outside it counts once per token and is in
    no passage.  The mean idf sums the idfs of the passage's distinct terms
    one by one in sorted order."""
    p = store.get(pid)
    titled = index.params.index_titles and p.title
    terms = reference_analyze(index.analyzer,
                              f"{p.title} {p.text}" if titled else p.text)
    known, unseen = set(), 0
    for token in set(reference_normalize(question)):
        analyzed = reference_analyze(index.analyzer, token)
        if not analyzed:
            continue
        if analyzed[0] in index.vocab:
            known.add(analyzed[0])
        else:
            unseen += 1
    n_terms = len(known) + unseen
    overlap = len(known & set(terms)) / n_terms if n_terms else 0.0
    distinct = sorted(set(terms))
    total = 0.0
    for t in distinct:
        total += float(index.idf[index.vocab[t]])
    mean_idf = total / len(distinct) if distinct else 0.0
    return np.array([retrieval_score, overlap, mean_idf, float(len(terms)),
                     1.0])


def reference_idf(index, token):
    """A candidate token's idf, from its own analysis: 0.0 for a stopword,
    and for a term outside the vocabulary the idf of a term with df 0."""
    stemmed = reference_analyze(index.analyzer, token)
    if not stemmed:
        return 0.0
    tid = index.vocab.get(stemmed[0])
    if tid is None:
        return math.log(1.0 + (index.doc_count + 0.5) / 0.5)
    return float(index.idf[tid])


def reference_char3(tokens):
    """Every ``t[i:i+3]`` of every token ``t``, plus each token shorter
    than 3 whole."""
    grams = set()
    for t in tokens:
        if len(t) < 3:
            grams.add(t)
        for i in range(len(t) - 2):
            grams.add(t[i:i + 3])
    return grams


def reference_ri(featurizer, question, expansion):
    """One RI feature row, built from scratch for one candidate."""
    qt = set(reference_normalize(question))
    et = reference_normalize(expansion)
    et_set = set(et)
    overlap = len(et_set & qt) / len(et_set) if et_set else 0.0
    novel = sorted(et_set - qt)
    novel_idfs = [reference_idf(featurizer.index, t) for t in novel]
    qg, eg = reference_char3(reference_normalize(question)), reference_char3(et)
    union = len(qg | eg)
    return np.array([
        float(len(et)),
        overlap,
        1.0 - overlap if et_set else 0.0,
        max(novel_idfs) if novel_idfs else 0.0,
        sum(novel_idfs) / len(novel_idfs) if novel_idfs else 0.0,
        float(sum(t.isdigit() for t in et)),
        float(sum(w[:1].isupper() for w in expansion.split())),
        len(qg & eg) / union if union else 0.0,
    ])


def reference_rd(featurizer, question, expansion, rl):
    """One RD feature row for one candidate, from the RankedList ``rl`` of
    its expanded query's top-2 retrieval; every passage normalized anew."""
    base = reference_ri(featurizer, question, expansion)
    if not len(rl):
        return np.concatenate([base, np.zeros(5)])
    scores = rl.scores[:2].tolist()
    top_score = scores[0]
    d_tokens = reference_normalize(featurizer.store.get(rl.pids()[0]).text)
    dt = set(d_tokens)
    qt = set(reference_normalize(question))
    et_set = set(reference_normalize(expansion))
    novel = et_set - qt
    novel_overlap = len(novel & dt) / len(novel) if novel else 0.0
    q_overlap = len(qt & dt) / len(qt) if qt else 0.0
    if len(scores) > 1:
        margin_pos = 1.0 if top_score - scores[1] > 0 else 0.0
    else:
        margin_pos = 1.0
    return np.concatenate([base, [
        top_score,
        novel_overlap,
        q_overlap,
        float(len(d_tokens)),
        margin_pos,
    ]])


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
    return RankedList([pid for pid, _ in out], [s for _, s in out])


# -- Porter stemmer: the plain per-character implementation ------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences in the [C](VC)^m[V] decomposition."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def reference_porter_stem(word: str) -> str:
    """The plain five-step Porter stemmer (Porter, 1980), one character at a
    time; ``text.porter_stem`` must return the same string for every input."""
    if len(word) <= 2:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # Step 1b
    flag_1b = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        flag_1b = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        flag_1b = True
    if flag_1b:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    step2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
        ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
        ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
        ("iviti", "ive"), ("biliti", "ble"),
    )
    for suffix, repl in step2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 3
    step3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )
    for suffix, repl in step3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 4
    step4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
    for suffix in step4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                w = stem
            break
    else:
        if w.endswith("ion") and len(w) > 3:
            stem = w[:-3]
            if stem.endswith(("s", "t")) and _measure(stem) > 1:
                w = stem

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w
