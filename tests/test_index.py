import json
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank.corpus import Passage, PassageStore
from expandrank.index import Bm25Params, Index, IndexError_, RankedList, build_index
from expandrank.synth import make_random_corpus, make_random_queries
from oracles import (brute_bm25_scores, brute_search, brute_term_counts,
                     reference_build_index, reference_score_all,
                     reference_search)

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


def _score(index, tokens, pid):
    return index.score_all(tokens)[index.pids.index(pid)]


class TestScore:
    def test_no_overlap_is_zero(self, small_corpus):
        store, index = small_corpus
        assert _score(index, ["notaterm"], index.pids[0]) == 0.0

    def test_single_doc_hand_formula(self):
        store = PassageStore([Passage(id="a", title="", text="red red green")])
        params = Bm25Params(k1=1.2, b=0.75, stemming=False, stopwords=False)
        index = build_index(store, params)
        # df=1, N=1 -> idf = ln(1 + 0.5/1.5); dl = avgdl -> len part = k1
        idf = np.log(1 + 0.5 / 1.5)
        expected = idf * (2 * 2.2) / (2 + 1.2) + idf * (1 * 2.2) / (1 + 1.2)
        got = _score(index, ["red", "green"], "a")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self, small_corpus):
        store, index = small_corpus
        queries = make_random_queries(20, list(store), seed=3)
        for q in queries:
            expected = brute_bm25_scores(store, PARAMS, q)
            for pid in index.pids[::7]:
                assert _score(index, index.analyzer(q), pid) == pytest.approx(
                    expected[pid], abs=1e-9
                )

    def test_monotone_tf(self):
        base = "alpha beta " + "pad " * 10
        store = PassageStore([
            Passage(id="a", title="", text=base),
            Passage(id="b", title="", text=base + " alpha"),
        ])
        index = build_index(store, Bm25Params(stemming=False, stopwords=False))
        assert _score(index, ["alpha"], "b") > _score(index, ["alpha"], "a")


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


def _with_param(name, value):
    """Damage that sets one Bm25 parameter in the header to ``value``."""
    def damage(raw, at):
        header = {**at["header"],
                  "params": {**at["header"]["params"], name: value}}
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        return (raw[:8] + struct.pack("<Q", len(blob)) + blob
                + raw[at["offsets"]:])
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


class TestKernelParity:
    def test_active_kernel_matches_python_loop(self, small_corpus):
        """Impacts plus one bincount equal the term-at-a-time loop bit for
        bit."""
        store, index = small_corpus
        for q in make_random_queries(10, list(store), seed=11):
            tokens = index.analyzer(q)
            slow = reference_score_all(index, tokens)
            assert np.any(slow > 0)
            np.testing.assert_array_equal(index.score_all(tokens), slow)

    def test_repeated_and_unknown_terms(self, small_corpus):
        _, index = small_corpus
        a, b, c = index.terms[3], index.terms[40], index.terms[7]
        for tokens in ([a, b, a, "zzunknown", c, a, b],
                       ["zzunknown", "zzother"], [], [c, c, c]):
            np.testing.assert_array_equal(index.score_all(tokens),
                                          reference_score_all(index, tokens))

    def test_empty_posting_list(self):
        # "y" is in the vocabulary with no postings: a file may hold that.
        index = Index(["a", "b"], ["x", "y", "z"],
                      np.array([0, 2, 2, 3], dtype=np.int64),
                      np.array([0, 1, 1], dtype=np.int32),
                      np.array([1, 2, 1], dtype=np.int32),
                      np.array([1, 3], dtype=np.int32), PARAMS)
        for tokens in (["y"], ["y", "x", "y", "z"], ["z", "y"]):
            np.testing.assert_array_equal(index.score_all(tokens),
                                          reference_score_all(index, tokens))
        assert index.score_all(["y"]).tolist() == [0.0, 0.0]


# Few distinct words and duplicated passages, so scores tie often.
_tie_texts = st.lists(st.sampled_from(("red", "blue", "green", "gold")),
                      min_size=1, max_size=5).map(" ".join)


class TestPartialTopK:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_tie_texts, st.integers(1, 3)), min_size=1,
                    max_size=8),
           _tie_texts)
    def test_search_matches_full_sort(self, texts, query):
        passages = [Passage(id=f"p{i:02d}.{j}", title="", text=text)
                    for i, (text, copies) in enumerate(texts)
                    for j in range(copies)]
        index = build_index(PassageStore(passages), PARAMS)
        n_pos = len(reference_search(index, query, len(passages)))
        # every cut, through ties or not, and k past the positive docs
        for k in range(1, n_pos + 3):
            assert index.search(query, k).entries == \
                reference_search(index, query, k)

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


_pid_lists = st.lists(st.text(alphabet="abcp0123", min_size=1, max_size=4),
                     max_size=30)
_scores = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@st.composite
def _entries(draw):
    pids = draw(_pid_lists)
    return [(pid, draw(_scores)) for pid in pids]


class TestRankedList:
    @given(_entries())
    def test_entries_round_trip(self, entries):
        rl = RankedList("q", entries, "t")
        assert rl.entries == entries
        assert rl.pids() == [pid for pid, _ in entries]
        assert len(rl) == len(entries)
        cols = RankedList.from_columns("q", rl.pids(), rl.scores, "t")
        assert cols.entries == entries
        assert cols == rl

    @given(_entries())
    def test_entries_from_an_iterator(self, entries):
        rl = RankedList("q", iter(entries), "t")
        assert rl.entries == entries
        assert len(rl) == len(rl.scores) == len(entries)

    @given(_entries(), _entries())
    def test_equality_matches_tuples(self, a, b):
        assert (RankedList("q", a) == RankedList("q", b)) == (a == b)
        assert RankedList("q", a) != RankedList("r", a)
        assert RankedList("q", a, "t") != RankedList("q", a, "u")

    @given(_entries())
    def test_validate_matches_tuples(self, entries):
        scores = [s for _, s in entries]
        pids = [pid for pid, _ in entries]
        ok = (all(a >= b for a, b in zip(scores, scores[1:]))
              and len(set(pids)) == len(pids))
        try:
            RankedList("q", entries).validate()
            assert ok
        except ValueError:
            assert not ok

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="2 pids but 1 scores"):
            RankedList.from_columns("q", ["a", "b"], [1.0])

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

    def test_validate(self):
        RankedList(qid="q", entries=[("a", 2.0), ("b", 1.0)]).validate()
        with pytest.raises(ValueError):
            RankedList(qid="q", entries=[("a", 1.0), ("b", 2.0)]).validate()
        with pytest.raises(ValueError):
            RankedList(qid="q", entries=[("a", 2.0), ("a", 1.0)]).validate()
