import gc
import json
import random
import struct
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import index as index_module
from expandrank import kernels
from expandrank.corpus import Passage, PassageStore
from expandrank.index import (Bm25Params, Index, IndexError_, RankedList,
                             build_index)
from expandrank.synth import make_random_corpus, make_random_queries
from expandrank.text import STOPWORDS, Analyzer, normalize
from oracles import (brute_bm25_scores, brute_search, brute_term_counts,
                     reference_build_index, reference_expanded_search,
                     reference_idf, reference_parts_scores,
                     reference_passage_features,
                     reference_score_all, reference_search,
                     reference_term_ids, reference_top)

PARAMS = Bm25Params()

# Stopwords, repeated and inflected forms, upper case, NFKC-folded forms
# (ligature, fullwidth), digits and punctuation-joined tokens.
_WORDS = ("the", "of", "and", "is", "a", "The", "OF", "running", "Runs",
          "RUN", "ran", "caresses", "ponies", "relational", "sky", "hopping",
          "\ufb01ve", "\uff15", "\uff26\uff55\uff4c\uff4c", "2018", "x1",
          "Deadpool-2", "(ok)")
_text = st.lists(
    st.one_of(st.sampled_from(_WORDS),
              st.text(alphabet="abeinrstAE19-\u00e9", min_size=1, max_size=7)),
    min_size=1, max_size=12,
).map(" ".join)
_corpora = st.lists(st.tuples(st.one_of(st.just(""), _text), _text),
                    min_size=1, max_size=8)
_params = st.builds(Bm25Params, stemming=st.booleans(),
                    stopwords=st.booleans(), index_titles=st.booleans())


def _saved_bytes(index) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "idx.bin"
        index.save(path)
        return path.read_bytes()


@pytest.fixture(scope="module")
def small_corpus():
    passages = make_random_corpus(100, seed=7, vocab_size=300, doc_len=30)
    store = PassageStore(passages)
    return store, build_index(store, PARAMS)


class TestParams:
    def test_invalid(self):
        with pytest.raises(IndexError_):
            Bm25Params(k1=0.0)
        with pytest.raises(IndexError_):
            Bm25Params(b=1.5)


class TestBuild:
    def test_counts_and_avgdl(self):
        store = PassageStore([
            Passage(id="a", title="", text="red green blue"),
            Passage(id="b", title="", text="red red"),
            Passage(id="c", title="", text="blue"),
        ])
        index = build_index(store, Bm25Params(stemming=False, stopwords=False))
        assert index.doc_count == 3
        assert index.avg_doc_length == pytest.approx((3 + 2 + 1) / 3)

    def test_all_stopword_doc(self):
        store = PassageStore([
            Passage(id="a", title="", text="the of and"),
            Passage(id="b", title="", text="red green"),
        ])
        index = build_index(store, PARAMS)
        assert index.doc_lengths[index.pids.index("a")] == 0

    def test_empty_store_rejected(self):
        with pytest.raises(IndexError_):
            build_index(PassageStore([]), PARAMS)

    def test_postings_match_brute_counts(self, small_corpus):
        store, index = small_corpus
        expected = brute_term_counts(store, PARAMS)
        assert set(index.vocab) == set(expected)
        for term, by_pid in expected.items():
            tid = index.vocab[term]
            s, e = index.post_offsets[tid], index.post_offsets[tid + 1]
            got = {
                index.pids[d]: tf
                for d, tf in zip(index.post_docs[s:e], index.post_tfs[s:e])
            }
            assert got == by_pid

    def test_title_indexing_flag(self):
        store = PassageStore([
            Passage(id="a", title="zebra facts", text="striped animal"),
            Passage(id="b", title="", text="plain animal"),
        ])
        plain = build_index(store, PARAMS)
        titled = build_index(store, Bm25Params(index_titles=True))
        assert "zebra" not in plain.vocab
        assert "zebra" in titled.vocab

    @given(_corpora, _params)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_builder(self, docs, params):
        store = PassageStore([Passage(id=f"p{i}", title=title, text=text)
                              for i, (title, text) in enumerate(docs)])
        got = build_index(store, params)
        want = reference_build_index(store, params)
        assert got.pids == want.pids
        assert got.terms == want.terms
        for name in ("post_offsets", "post_docs", "post_tfs", "doc_lengths"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert _saved_bytes(got) == _saved_bytes(want)


def _score(index, text, pid):
    return index.score_all(index.term_ids(text))[index.pids.index(pid)]


class TestScore:
    def test_no_overlap_is_zero(self, small_corpus):
        store, index = small_corpus
        assert _score(index, "notaterm", index.pids[0]) == 0.0

    def test_single_doc_hand_formula(self):
        store = PassageStore([Passage(id="a", title="", text="red red green")])
        params = Bm25Params(k1=1.2, b=0.75, stemming=False, stopwords=False)
        index = build_index(store, params)
        # df=1, N=1 -> idf = ln(1 + 0.5/1.5); dl = avgdl -> len part = k1
        idf = np.log(1 + 0.5 / 1.5)
        expected = idf * (2 * 2.2) / (2 + 1.2) + idf * (1 * 2.2) / (1 + 1.2)
        got = _score(index, "red green", "a")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self, small_corpus):
        store, index = small_corpus
        queries = make_random_queries(20, list(store), seed=3)
        for q in queries:
            expected = brute_bm25_scores(store, PARAMS, q)
            for pid in index.pids[::7]:
                assert _score(index, q, pid) == pytest.approx(
                    expected[pid], abs=1e-9
                )

    def test_monotone_tf(self):
        base = "alpha beta " + "pad " * 10
        store = PassageStore([
            Passage(id="a", title="", text=base),
            Passage(id="b", title="", text=base + " alpha"),
        ])
        index = build_index(store, Bm25Params(stemming=False, stopwords=False))
        assert _score(index, "alpha", "b") > _score(index, "alpha", "a")


class TestSearch:
    def test_k_larger_than_corpus(self, small_corpus):
        store, index = small_corpus
        q = make_random_queries(1, list(store), seed=1)[0]
        rl = index.search(q, k=10_000)
        scores = brute_bm25_scores(store, PARAMS, q)
        assert len(rl) == sum(1 for s in scores.values() if s > 0)

    def test_unique_match_ranks_first(self, tiny_store):
        index = build_index(tiny_store, PARAMS)
        rl = index.search("grow hops oregon", k=3)
        assert rl.entries[0][0] == "p1"
        assert brute_search(tiny_store, PARAMS, "grow hops oregon", 3)[0][0] == "p1"

    def test_prefix_property(self, small_corpus):
        store, index = small_corpus
        for q in make_random_queries(5, list(store), seed=2):
            head = index.search(q, k=1).entries
            full = index.search(q, k=10).entries
            assert full[:1] == head

    def test_matches_brute_order_and_scores(self, small_corpus):
        store, index = small_corpus
        for q in make_random_queries(20, list(store), seed=5):
            got = index.search(q, k=100)
            want = brute_search(store, PARAMS, q, 100)
            assert got.pids() == [pid for pid, _ in want]
            for (gp, gs), (wp, ws) in zip(got.entries, want):
                assert gs == pytest.approx(ws, abs=1e-9)

    def test_k_validation(self, small_corpus):
        _, index = small_corpus
        with pytest.raises(ValueError):
            index.search("red", k=0)

    def test_determinism(self, small_corpus):
        store, index = small_corpus
        q = make_random_queries(1, list(store), seed=9)[0]
        again = build_index(store, PARAMS)
        assert index.search(q, 50).entries == again.search(q, 50).entries


class TestPassageStatistics:
    @pytest.fixture(scope="class")
    def many_postings(self):
        """Titled passages of stopwords and inflected forms that stem to
        one term, one of them all stopwords, over more postings than one
        ``_SLICE``."""
        rng = random.Random(11)
        stems = [f"w{j}x" for j in range(3000)]
        words = [s + suffix for s in stems for suffix in ("", "s", "ing")]
        words += sorted(STOPWORDS)
        passages = [Passage(id=f"d{d:05d}", title=" ".join(rng.choices(
            words, k=3)) if d % 2 else "", text=" ".join(rng.choices(
                words, k=30))) for d in range(1500)]
        passages.append(Passage(id="stop", title="", text="the of and"))
        store = PassageStore(passages)
        params = Bm25Params(index_titles=True)
        index = build_index(store, params)
        assert len(index.post_docs) > index_module._SLICE
        return store, index

    def test_mean_idf_and_length_equal_brute_analysis(self, many_postings):
        """Each passage's mean idf is its distinct terms' idfs summed and
        averaged; its length is its term count, title included."""
        store, index = many_postings
        want = np.array([reference_passage_features(index, store, "", pid,
                                                    0.0)[2:4]
                         for pid in index.pids])
        assert want[index._pid_to_doc["stop"]].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(index.mean_idf, want[:, 0], rtol=1e-12,
                                   atol=0)
        assert index.doc_lengths.tolist() == want[:, 1].tolist()

    def test_loaded_statistics_bit_equal(self, many_postings, tmp_path):
        _, index = many_postings
        path = tmp_path / "idx.bin"
        index.save(path)
        loaded = Index.load(path)
        assert loaded.mean_idf.tobytes() == index.mean_idf.tobytes()
        assert loaded.doc_lengths.tobytes() == index.doc_lengths.tobytes()


class TestPersistence:
    def test_round_trip(self, small_corpus, tmp_path):
        store, index = small_corpus
        path = tmp_path / "idx.bin"
        index.save(path)
        loaded = Index.load(path)
        q = make_random_queries(1, list(store), seed=8)[0]
        assert loaded.search(q, 50).entries == index.search(q, 50).entries

    @pytest.mark.skipif(sys.byteorder != "little",
                        reason="the file is little-endian; a big-endian "
                               "host must convert, so it copies")
    def test_loaded_arrays_are_views_of_the_file_bytes(self, small_corpus,
                                                       tmp_path):
        _, index = small_corpus
        path = tmp_path / "idx.bin"
        index.save(path)
        loaded = Index.load(path)
        for name in ("post_offsets", "post_docs", "post_tfs", "doc_lengths"):
            arr = getattr(loaded, name)
            assert not arr.flags.owndata, name
            assert isinstance(arr.base, bytes), name
            np.testing.assert_array_equal(arr, getattr(index, name))

    def test_byte_identical_rebuild(self, small_corpus, tmp_path):
        store, _ = small_corpus
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        build_index(store, PARAMS).save(p1)
        build_index(store, PARAMS).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nonsense")
        with pytest.raises(IndexError_):
            Index.load(path)


def _layout(raw: bytes) -> dict:
    """Byte offset of each array section of a saved index, plus the header."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    n_terms, n_post = len(header["terms"]), header["postings"]
    offsets = 16 + hlen
    docs = offsets + 8 * (n_terms + 1)
    tfs = docs + 4 * n_post
    return {"header": header, "offsets": offsets, "docs": docs, "tfs": tfs,
            "dls": tfs + 4 * n_post}


def _put(raw: bytes, pos: int, fmt: str, value) -> bytes:
    return raw[:pos] + struct.pack(fmt, value) + raw[pos + struct.calcsize(fmt):]


def _get(raw: bytes, pos: int, fmt: str):
    return struct.unpack_from(fmt, raw, pos)[0]


def _swap_first_pair(raw, at):
    """Swap the first two doc ids of the first posting list with df >= 2."""
    offsets = np.frombuffer(raw[at["offsets"]:at["docs"]], dtype="<i8")
    tid = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
    p = at["docs"] + 4 * int(offsets[tid])
    a, b = _get(raw, p, "<i"), _get(raw, p + 4, "<i")
    return _put(_put(raw, p, "<i", b), p + 4, "<i", a)


def _duplicate_pid(raw, at):
    hlen = _get(raw, 8, "<Q")
    pids = at["header"]["pids"]
    head = raw[16:16 + hlen].replace(
        json.dumps(pids[1]).encode(), json.dumps(pids[0]).encode(), 1)
    return raw[:16] + head + raw[16 + hlen:]


def _with_header(raw, at, **fields):
    """``raw`` with ``fields`` set in its header."""
    blob = json.dumps({**at["header"], **fields}, sort_keys=True,
                      separators=(",", ":")).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[at["offsets"]:]


def _with_param(name, value):
    """Damage that sets one Bm25 parameter in the header to ``value``."""
    def damage(raw, at):
        return _with_header(raw, at,
                            params={**at["header"]["params"], name: value})
    return damage


def _swap_first_two(name):
    """Damage that swaps the first two entries of the header's ``name``."""
    def damage(raw, at):
        first, second, *rest = at["header"][name]
        return _with_header(raw, at, **{name: [second, first, *rest]})
    return damage


# (damage, words the error must contain).  Each damage breaks one check.
_DAMAGE = {
    "truncated": (lambda raw, at: raw[:-100], "truncated"),
    "huge_header_length": (lambda raw, at: _put(raw, 8, "<Q", 2 ** 62),
                           "header truncated"),
    "trailing_bytes": (lambda raw, at: raw + b"\0", "trailing bytes"),
    "header_not_json": (lambda raw, at: raw[:16] + b"x" + raw[17:],
                        "bad header"),
    "offset_decreases": (
        lambda raw, at: _put(raw, at["offsets"] + 8, "<q",
                             _get(raw, at["offsets"] + 16, "<q") + 1),
        "offsets decrease"),
    "offset_not_zero": (lambda raw, at: _put(raw, at["offsets"], "<q", 1),
                        "offsets start"),
    "offset_end": (
        lambda raw, at: _put(raw, at["docs"] - 8, "<q",
                             at["header"]["postings"] - 1),
        "offsets end"),
    "doc_id_out_of_range": (
        lambda raw, at: _put(raw, at["docs"], "<i",
                             len(at["header"]["pids"])),
        "doc id outside"),
    "doc_ids_not_increasing": (_swap_first_pair, "strictly increasing"),
    "zero_tf": (lambda raw, at: _put(raw, at["tfs"], "<i", 0), "tf below 1"),
    "doc_length": (
        lambda raw, at: _put(raw, at["dls"], "<i",
                             _get(raw, at["dls"], "<i") + 1),
        "doc lengths"),
    "duplicate_pid": (_duplicate_pid, "duplicate pids"),
    # doc ids follow pid order and term ids the sorted vocabulary, so a
    # swap would reverse ties or serve each term the other's postings
    "pids_swapped": (_swap_first_two("pids"), "pids not ascending"),
    "terms_swapped": (_swap_first_two("terms"), "terms not ascending"),
    # a truthy string would stem, and a bool k1 or b would change scores
    "stemming_string": (_with_param("stemming", "no"),
                        "bad header .stemming must be a bool, got str"),
    "stopwords_int": (_with_param("stopwords", 1),
                      "bad header .stopwords must be a bool, got int"),
    "index_titles_null": (_with_param("index_titles", None),
                          "bad header .index_titles must be a bool"),
    "k1_bool": (_with_param("k1", True),
                "bad header .k1 must be a number, got bool"),
    "b_bool": (_with_param("b", True),
               "bad header .b must be a number, got bool"),
    "k1_string": (_with_param("k1", "0.9"),
                  "bad header .k1 must be a number, got str"),
}


class TestDamagedIndex:
    @pytest.fixture(scope="class")
    def saved(self, small_corpus, tmp_path_factory):
        _, index = small_corpus
        path = tmp_path_factory.mktemp("idx") / "good.bin"
        index.save(path)
        return path.read_bytes()

    def test_intact_file_loads(self, saved, tmp_path):
        path = tmp_path / "good.bin"
        path.write_bytes(saved)
        Index.load(path)

    @pytest.mark.parametrize("kind", sorted(_DAMAGE))
    def test_rejected_with_path_and_check(self, saved, tmp_path, kind):
        damage, words = _DAMAGE[kind]
        raw = damage(saved, _layout(saved))
        assert raw != saved
        path = tmp_path / f"{kind}.bin"
        path.write_bytes(raw)
        with pytest.raises(IndexError_, match=words) as exc:
            Index.load(path)
        assert str(path) in str(exc.value)


@st.composite
def _posting_lists(draw):
    """An ``Index`` over 1-12 documents with posting lists, among 0-30
    documents on none, and 1-6 terms whose lists may be empty."""
    n_docs = draw(st.integers(1, 12))
    filler = draw(st.integers(0, 30))
    offsets, docs, tfs = [0], [], []
    for _ in range(draw(st.integers(1, 6))):
        on = draw(st.lists(st.integers(0, n_docs - 1), unique=True,
                           max_size=n_docs))
        docs += sorted(on)
        tfs += draw(st.lists(st.integers(1, 5), min_size=len(on),
                             max_size=len(on)))
        offsets.append(len(docs))
    docs = np.array(docs, dtype=np.int32)
    tfs = np.array(tfs, dtype=np.int32)
    n = n_docs + filler
    lengths = np.bincount(docs, weights=tfs, minlength=n).astype(np.int32)
    params = Bm25Params(k1=draw(st.floats(0.1, 3.0)),
                        b=draw(st.floats(0.0, 1.0)))
    return Index([f"p{i:02d}" for i in range(n)],
                 [f"t{i}" for i in range(len(offsets) - 1)],
                 np.array(offsets, dtype=np.int64), docs, tfs, lengths,
                 params)


class TestKernelParity:
    def test_active_kernel_matches_python_loop(self, small_corpus):
        """Impacts plus one bincount equal the term-at-a-time loop bit for
        bit."""
        store, index = small_corpus
        for q in make_random_queries(10, list(store), seed=11):
            tids = reference_term_ids(index, q)
            slow = reference_score_all(index, tids)
            assert np.any(slow > 0)
            np.testing.assert_array_equal(index.score_all(tids), slow)

    def test_score_query_calls_carry_what_the_tracer_reads(
            self, small_corpus, monkeypatch):
        """Every ``kernels.score_query`` call from ``search``, a dense
        ``search_set`` and a dense ``SetSearch.top`` scores one part: its
        ``args[0]`` is an int64 array of the part's distinct term ids,
        ascending, whose ``post_offsets`` spans (``args[2]``) sum to the
        postings of the part's terms, and a dense set of n expansions makes
        n + 1 calls.  The benchmark's tracer counts postings from exactly
        these arguments."""
        store, index = small_corpus
        df = {t: len(pids) for t, pids in
              brute_term_counts(store, PARAMS).items()}
        calls = []
        score_query = kernels.score_query

        def recording(*args, **kwargs):
            calls.append(args)
            return score_query(*args, **kwargs)

        def check(texts):
            parts = [index.term_ids(t) for t in texts]
            assert len(calls) == len(parts)
            for args, ids in zip(calls, parts):
                term_ids, offsets = args[0], args[2]
                assert isinstance(term_ids, np.ndarray)
                assert term_ids.dtype == np.int64
                assert term_ids.tolist() == sorted(set(ids))
                assert offsets is index.post_offsets
                assert int((offsets[term_ids + 1] - offsets[term_ids]).sum()) \
                    == sum(df[index.terms[t]] for t in set(ids))
            calls.clear()

        monkeypatch.setattr(kernels, "score_query", recording)
        question, *expansions = make_random_queries(4, list(store), seed=5)
        # a part whose terms repeat, and one with no terms
        expansions += [f"{expansions[0]} {expansions[0]}", "the of"]
        index.search(question, 10)
        check([question])
        for k in (2, 10):
            search = index.search_set(question, expansions, k)
            assert search._cols is None, "the set must take the dense path"
            check([question, *expansions])
            search.top(3, 50)
            check([expansions[3]])

    def test_repeated_and_unknown_terms(self, small_corpus):
        _, index = small_corpus
        a, b, c = 3, 40, 7
        for tids in ([a, b, a, c, a, b], [], [c, c, c]):
            np.testing.assert_array_equal(index.score_all(tids),
                                          reference_score_all(index, tids))
        # a word outside the vocabulary gets no term id, so adds no term
        assert index.term_ids("zzunknown zzother") == []

    def test_empty_posting_list(self):
        # "y" is in the vocabulary with no postings: a file may hold that.
        index = Index(["a", "b"], ["x", "y", "z"],
                      np.array([0, 2, 2, 3], dtype=np.int64),
                      np.array([0, 1, 1], dtype=np.int32),
                      np.array([1, 2, 1], dtype=np.int32),
                      np.array([1, 3], dtype=np.int32), PARAMS)
        for tids in ([1], [1, 0, 1, 2], [2, 1]):
            np.testing.assert_array_equal(index.score_all(tids),
                                          reference_score_all(index, tids))
        assert index.score_all([1]).tolist() == [0.0, 0.0]

    @settings(max_examples=150, deadline=None)
    @given(_posting_lists(), st.data())
    def test_counted_terms_match_loop(self, index, data):
        """Query terms counted 1 to 7 times, an empty query and terms with
        empty posting lists: ``score_all`` equals the loop bit for bit, and
        ``search_set`` of the first query plus each of the others,
        alone and as a set, equals the parts reference on its packed and
        its dense path."""
        vocab_size = len(index.terms)
        query = st.lists(st.tuples(st.integers(0, vocab_size - 1),
                                   st.integers(1, 7)),
                         unique_by=lambda tc: tc[0], max_size=vocab_size)
        queries = [data.draw(st.permutations([t for t, c in tcs
                                              for _ in range(c)]))
                   for tcs in data.draw(st.lists(query, min_size=1,
                                                 max_size=4))]
        for ids in queries:
            assert index.score_all(ids).tobytes() == \
                reference_score_all(index, ids).tobytes()
        k = data.draw(st.integers(1, index.doc_count + 1))
        question, *expansions = queries
        # the queries as texts of their terms, which analyze to themselves
        q_text, *texts = [" ".join(index.terms[t] for t in ids)
                          for ids in queries]
        assert [index.term_ids(t) for t in (q_text, *texts)] == queries
        dtype = index.search(q_text, k)._rows.dtype
        # each expansion alone, as ``retrieve`` searches its choice, then
        # the set on every path
        searches = [([ids], index.search_set(q_text, [text], k).lists)
                    for ids, text in zip(expansions, texts)]
        searches += [(expansions, lists) for lists in (
            index.search_set(q_text, texts, k).lists,
            index._search_packed(question, expansions, k).lists,
            index._search_dense(question, expansions, k).lists)]
        for expansion_id_lists, lists in searches:
            for rl, ids in zip(lists, expansion_id_lists, strict=True):
                assert rl._rows.dtype == dtype
                want = reference_top(index, reference_parts_scores(
                    index, question, ids), k)
                assert rl.pids() == [pid for pid, _ in want]
                assert rl.scores.tobytes() == \
                    np.array([s for _, s in want]).tobytes()

    def test_one_postings_sized_float_array(self, small_corpus):
        """The index holds each posting's contribution once: no second
        float64 array of the postings' size."""
        _, index = small_corpus
        n = len(index.post_docs)
        held = [name for name, value in vars(index).items()
                if isinstance(value, np.ndarray) and value.dtype == np.float64
                and value.size == n]
        assert held == ["_impact"]

    def test_contributions_filled_in_slices(self, small_corpus, monkeypatch):
        """Slices that cut through posting lists fill the same
        contributions as one slice over all postings."""
        store, index = small_corpus
        monkeypatch.setattr(index_module, "_SLICE", 7)
        sliced = build_index(store, PARAMS)
        assert sliced._impact.tobytes() == index._impact.tobytes()
        for q in make_random_queries(10, list(store), seed=13):
            tids = reference_term_ids(sliced, q) * 3
            assert sliced.score_all(tids).tobytes() == \
                reference_score_all(sliced, tids).tobytes()


# Few distinct words and duplicated passages, so scores tie often.
_tie_texts = st.lists(st.sampled_from(("red", "blue", "green", "gold")),
                      min_size=1, max_size=5).map(" ".join)


def _index_without_terms(n: int, terms=()) -> Index:
    """An index of ``n`` passages that hold no term: ``terms`` have empty
    posting lists."""
    return Index([f"p{i:03d}" for i in range(n)], list(terms),
                 np.zeros(len(terms) + 1, np.int64), np.zeros(0, np.int32),
                 np.zeros(0, np.int32), np.zeros(n, np.int32), PARAMS)


class TestPartialTopK:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_tie_texts, st.integers(1, 3)), min_size=1,
                    max_size=8),
           _tie_texts, st.lists(_tie_texts, max_size=1),
           st.integers(0, 60))
    def test_search_matches_full_sort(self, texts, query, others, filler):
        # ``filler`` passages on no query's list make the set's lists short
        # next to the corpus, so ``search_set`` packs some sets
        passages = [Passage(id=f"p{i:02d}.{j}", title="", text=text)
                    for i, (text, copies) in enumerate(texts)
                    for j in range(copies)]
        passages += [Passage(id=f"w{i:02d}", title="", text="white")
                     for i in range(filler)]
        index = build_index(PassageStore(passages), PARAMS)
        # expansions with no term ids, one that repeats a question term,
        # and the question itself
        expansions = [query, "the zebra", f"{query.split()[0]} blue",
                      *others]
        q_ids = index.term_ids(query)
        ids = [index.term_ids(e) for e in expansions]
        n_pos = max(len(reference_expanded_search(index, query, e,
                                                  len(passages)))
                    for e in expansions)
        # every cut, through ties or not, and k past the positive docs
        for k in range(1, n_pos + 3):
            assert index.search(query, k).entries == \
                reference_search(index, query, k)
            dtype = index.search(query, k)._rows.dtype
            for lists in (index.search_set(query, expansions, k).lists,
                          index._search_packed(q_ids, ids, k).lists,
                          index._search_dense(q_ids, ids, k).lists,
                          # each expansion alone: one dense list, no floor
                          [rl for e in expansions
                           for rl in index.search_set(query, [e], k).lists]):
                assert len(lists) == len(expansions)
                for e, rl in zip(expansions, lists):
                    assert rl.entries == \
                        reference_expanded_search(index, query, e, k)
                    assert rl._rows.dtype == dtype

    def test_search_set_edges(self, small_corpus):
        store, index = small_corpus
        question, *others = make_random_queries(3, list(store), seed=2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.search_set(question, others, 0)
        assert index.search_set(question, [], 5).lists == []
        # an expansion with no term ids searches the bare question
        assert index.search_set(question, ["", "the of"], 5).lists == \
            [index.search(question, 5)] * 2
        for lists in (index._search_packed([], [[], []], 5).lists,
                      index._search_dense([], [[], []], 5).lists):
            for rl in lists:
                assert len(rl) == 0
                assert rl.scores.dtype == np.float64
                assert rl._rows.dtype == np.uint16

    def test_packed_lists_own_their_arrays(self, small_corpus):
        """A kept list holds its own rows and scores, not views of the
        set's arrays, so it keeps nothing else of the set alive."""
        store, index = small_corpus
        q_ids, *ids = [index.term_ids(q)
                       for q in make_random_queries(5, list(store), seed=3)]
        for rl in index._search_packed(q_ids, ids, 10).lists:
            assert len(rl) and rl._rows.base is None and rl.scores.base is None

    def test_boundary_cuts_through_ties(self):
        # Three copies of one passage tie; k=2 and k=3 cut through them.
        passages = [Passage(id="a", title="", text="gold gold red"),
                    *(Passage(id=f"t{i}", title="", text="gold red blue")
                      for i in (2, 0, 1)),
                    Passage(id="z", title="", text="gold green blue blue")]
        index = build_index(PassageStore(passages), PARAMS)
        for k in (1, 2, 3, 4, 5, 9):
            expected = reference_search(index, "gold", k)
            assert index.search("gold", k).entries == expected
        assert index.search("gold", 3).pids() == ["a", "t0", "t1"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0)),
                              st.floats(0.0, 4.0)),
                    min_size=1, max_size=40),
           st.integers(1, 4),
           st.sampled_from(("none", "at", "just below", "half")))
    def test_top_equals_a_full_sort(self, values, k, floor_at):
        """``_top`` of a score vector with heavy ties and zeros of both
        signs equals a full tie-stable sort of its positive entries, on
        both sides of the k <= 2 branch, with no floor or a floor at or
        below the k-th score, and leaves the vector's bytes unchanged."""
        index = _index_without_terms(len(values))
        scores = np.array(values)
        positive = np.sort(scores[scores > 0.0])[::-1]
        floor = 0.0
        if floor_at != "none" and len(positive) >= k:
            kth = positive[k - 1]
            floor = {"at": kth, "just below": np.nextafter(kth, 0.0),
                     "half": kth / 2}[floor_at]
        before = scores.tobytes()
        rl = index._top(scores, floor, k)
        assert scores.tobytes() == before
        assert rl.entries == reference_top(index, scores, k)
        assert rl._rows.dtype == np.uint16 and rl.scores.dtype == np.float64


class TestZeroDocuments:
    """``Index.load`` accepts a file of no passages; every search of such
    an index is empty, through the argmax branch of ``_top`` (k <= 2)
    too."""

    @pytest.fixture(params=["constructed", "loaded"])
    def empty_index(self, request, tmp_path):
        index = _index_without_terms(0, ["gold", "red"])
        if request.param == "loaded":
            index.save(tmp_path / "idx.bin")
            index = Index.load(tmp_path / "idx.bin")
        assert index.doc_count == 0 and index.term_ids("red gold") == [1, 0]
        return index

    @pytest.mark.parametrize("k", [1, 2, 100])
    def test_every_search_is_empty(self, empty_index, k):
        empty = RankedList([], [])
        assert empty_index.search("red gold", k) == empty
        for expansions in (["gold"], ["gold", "red blue"]):
            assert empty_index.search_set("red gold", expansions,
                                          k).lists == [empty] * len(expansions)
        assert empty_index._search_dense([1], [[0], [0, 1]],
                                         k).lists == [empty] * 2

    @pytest.mark.parametrize("k", [1, 2, 100])
    def test_every_cut_of_a_set_is_empty(self, empty_index, k):
        """A set of no documents, packed or dense, cuts an empty list at
        any depth."""
        empty = RankedList([], [])
        for found in (empty_index._search_packed([1], [[0], [0, 1]], k),
                      empty_index._search_dense([1], [[0], [0, 1]], k)):
            assert [found.top(i, depth) for i in (0, 1)
                    for depth in (1, 2, 3, 100)] == [empty] * 8


class TestTermOverlap:
    @pytest.mark.parametrize("loaded", [False, True])
    def test_a_term_on_no_list_counts_and_never_hits(self, loaded,
                                                     tmp_path):
        """``Index.load`` accepts a term with an empty posting list.  In the
        overlap it counts like any term of the vocabulary, and no passage
        holds it; a token outside the vocabulary counts and never hits, and
        a stopword does not count."""
        index = Index(["p0", "p1"], ["gold", "red", "sky"],
                      np.array([0, 0, 0, 1], np.int64), np.zeros(1, np.int32),
                      np.ones(1, np.int32), np.array([1, 0], np.int32), PARAMS)
        if loaded:
            index.save(tmp_path / "idx.bin")
            index = Index.load(tmp_path / "idx.bin")
        overlap = index.term_overlap(normalize("The sky, red gold blue sky"),
                                     np.array([1, 0]))
        assert overlap.tolist() == [0.0, 0.25]


class TestDocsOf:
    def test_search_rows_as_they_are_other_tables_by_pid(self, planted,
                                                         planted_index):
        """A search result's rows index the index's own pid table, so they
        are its doc ids as they are.  A list with a table of its own, as a
        run file's lists have, or another index's maps its pids, and a pid
        the index lacks is named."""
        rl = planted_index.search(planted.questions[0].question, 20)
        assert len(rl) and planted_index.docs_of(rl) is rl._rows
        want = [planted_index._pid_to_doc[pid] for pid in rl.pids()]
        assert planted_index.docs_of(
            RankedList(rl.pids(), rl.scores)).tolist() == want
        assert rl._rows.tolist() == want
        other = build_index(PassageStore([
            Passage(id=rl.pids()[0], title="", text="gold"),
            Passage(id="zz-not-planted", title="", text="gold red")]))
        found = other.search("gold", 2)
        assert found.pids() == [rl.pids()[0], "zz-not-planted"]
        assert planted_index.docs_of(found.head(1)).tolist() == want[:1]
        with pytest.raises(ValueError, match="^passage 'zz-not-planted' is "
                                             "not in the index$"):
            planted_index.docs_of(found)


_pid_lists = st.lists(st.text(alphabet="abcp0123", min_size=1, max_size=4),
                     max_size=30)
_scores = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@st.composite
def _entries(draw):
    pids = draw(_pid_lists)
    return [(pid, draw(_scores)) for pid in pids]


_IDF_CORPUS = ("Ponies ran to the river bank", "running runs RUN over hills",
               "a sky of 2018 stars", "relational caresses and hopping ponies")
_IDF_CORPUS_TOKENS = sorted({t for text in _IDF_CORPUS
                             for t in normalize(text)})


class TestTermMap:
    def test_each_surface_token_analyzed_once(self, small_corpus,
                                              monkeypatch):
        store, _ = small_corpus
        index = build_index(store, PARAMS)  # a cold map
        calls = Counter()
        analyze = Analyzer.term

        def counting(self, token):
            calls[token] += 1
            return analyze(self, token)

        monkeypatch.setattr(Analyzer, "term", counting)
        queries = make_random_queries(20, list(store), seed=5)
        for q in queries + queries:
            index.search(q, 10)
        assert calls == Counter({t for q in queries for t in normalize(q)})

    @pytest.mark.parametrize("params", [
        PARAMS, Bm25Params(stemming=False, stopwords=False, index_titles=True)])
    def test_build_and_lookup_analyze_no_raw_text(self, tiny_store, params,
                                                  monkeypatch):
        """The build and a cold map's lookups analyze normalized tokens by
        ``Analyzer.term``; neither sends a token through ``__call__``."""
        calls = []
        analyze = Analyzer.__call__

        def counting(self, raw):
            calls.append(raw)
            return analyze(self, raw)

        monkeypatch.setattr(Analyzer, "__call__", counting)
        index = build_index(tiny_store, params)
        assert not index._term_of
        for q in ("where do they grow hops", "beer brewed", "Film, May 2018"):
            assert len(index.search(q, 3))
        assert index._term_of and calls == []

    def test_a_token_that_is_its_own_term_is_not_copied(self, tiny_store):
        index = build_index(tiny_store, PARAMS)
        assert index.term_ids("beer brewed") == [index.vocab["beer"],
                                                 index.vocab["brew"]]
        keys = {k: k for k in index._term_of}
        assert keys["beer"] is index.terms[index.vocab["beer"]]
        assert keys["brewed"] == "brewed"

    def test_freed_with_its_index(self, tiny_store):
        """Only its index holds the map, so the map goes with the index."""
        index = build_index(tiny_store, PARAMS)
        index.search("where do they grow hops", 3)
        assert index._term_of
        holders = gc.get_referrers(index._term_of)
        assert holders and all(h is index or h is vars(index)
                               for h in holders)
        ref = weakref.ref(index)
        del index, holders
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("stemming", [True, False])
    @pytest.mark.parametrize("stopwords", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_IDF_CORPUS_TOKENS),
                              st.sampled_from(sorted(STOPWORDS)),
                              st.text(alphabet="abeinrsty", min_size=1,
                                      max_size=8)),
                    max_size=12))
    def test_token_idfs_equal_the_reference(self, stemming, stopwords,
                                            tokens):
        """A token's idf, looked up through the term map, equals the
        reference's, which analyzes the token itself, bit for bit: a
        stopword's 0.0, the unseen idf of a term outside the vocabulary,
        and a held term's idf, on a cold map and a filled one."""
        index = build_index(PassageStore(
            [Passage(id=f"p{i}", title="", text=text)
             for i, text in enumerate(_IDF_CORPUS)]),
            Bm25Params(stemming=stemming, stopwords=stopwords))
        want = [reference_idf(index, t) for t in tokens]
        for _ in range(2):
            got = index.token_idfs(tokens)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def _ranked(entries):
    return RankedList([pid for pid, _ in entries], [s for _, s in entries])


class TestRankedList:
    @given(_entries())
    def test_entries_round_trip(self, entries):
        rl = _ranked(entries)
        assert rl.entries == entries
        assert rl.pids() == [pid for pid, _ in entries]
        assert len(rl) == len(entries)

    @given(_entries(), _entries())
    def test_equality_matches_tuples(self, a, b):
        assert (_ranked(a) == _ranked(b)) == (a == b)

    @given(_entries())
    def test_validate_matches_tuples(self, entries):
        scores = [s for _, s in entries]
        pids = [pid for pid, _ in entries]
        ok = (all(a >= b for a, b in zip(scores, scores[1:]))
              and len(set(pids)) == len(pids))
        try:
            _ranked(entries).validate()
            assert ok
        except ValueError:
            assert not ok

    def test_not_equal_to_other_types(self):
        rl = RankedList(["a"], [1.0])
        assert rl.__eq__([("a", 1.0)]) is NotImplemented
        assert rl != [("a", 1.0)] and rl != rl.entries

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="2 pids but 1 scores"):
            RankedList(["a", "b"], [1.0])
        with pytest.raises(ValueError, match="1 pids but 2 scores"):
            RankedList(["a"], [2.0, 1.0])

    def test_search_result_holds_no_per_entry_objects(self):
        """Entries cost their pid reference and one float64: no tuple or
        float object per entry."""
        store = PassageStore([Passage(id=f"p{i:03d}", title="",
                                      text=f"common word{i}")
                              for i in range(200)])
        index = build_index(store, PARAMS)
        index.search("common", 100)  # warm up caches outside the measure

        def retained(k):
            # Live tuples and floats empty their free lists, so a tuple or
            # float the search makes is a traced allocation.
            drain = [(None, float(i)) for i in range(5000)]  # noqa: F841
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rl = index.search("common", k)
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(rl) == k
            return size

        per_entry = (retained(100) - retained(1)) / 99
        assert per_entry <= 24

    @pytest.mark.parametrize("n, row_type", [(1 << 16, np.uint16),
                                             ((1 << 16) + 1, np.int32)])
    def test_rows_of_the_narrowest_type(self, n, row_type):
        pids = [f"p{i}" for i in range(n)]
        rl = RankedList(pids, np.arange(n, 0, -1.0))
        assert rl._rows.dtype == row_type
        assert rl.pids() == pids
        rl.validate()

    def test_validate(self):
        RankedList(["a", "b"], [2.0, 1.0]).validate()
        with pytest.raises(ValueError, match="^scores not non-increasing$"):
            RankedList(["a", "b"], [1.0, 2.0]).validate()
        with pytest.raises(ValueError, match="^duplicate pids$"):
            RankedList(["a", "a"], [2.0, 1.0]).validate()
