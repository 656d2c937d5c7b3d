import copy
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import corpus
from expandrank.corpus import CorpusError, Passage, PassageStore, QAExample
from expandrank.expansion import (CandidateSet, ConstructionConfig,
                                  ExpansionCandidate, assign_folds,
                                  build_training_set, dedup,
                                  label_candidates, load_expansions,
                                  load_training_set, sample_expansions_stub,
                                  save_training_set, truncate)
from expandrank.index import Bm25Params, Index, build_index
from expandrank.pipeline import StrategySpec, run_strategy
from expandrank.synth import make_random_corpus, make_random_queries
from expandrank.text import normalize
from oracles import reference_expanded_search
from test_golden import _zipf


def cs(texts, qid="q1"):
    return CandidateSet(qid=qid, candidates=[
        ExpansionCandidate(text=t, generator_tag="stub") for t in texts
    ])


class TestConfig:
    def test_minimums(self):
        with pytest.raises(ValueError):
            ConstructionConfig(folds=1)

    @pytest.mark.parametrize("k_retrieve", [0, -1])
    def test_retrieval_depth_at_least_one(self, k_retrieve):
        with pytest.raises(ValueError, match="k_retrieve must be >= 1"):
            ConstructionConfig(k_retrieve=k_retrieve)
        assert ConstructionConfig(k_retrieve=1).k_retrieve == 1


class TestCandidates:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            ExpansionCandidate(text="   ")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ExpansionCandidate(text="x", generator_tag="mystery")


class TestDedup:
    """A CandidateSet keeps the first candidate of each normalized text."""

    def test_first_occurrence_kept(self):
        assert [c.text for c in cs(["a", "b", "a"]).candidates] == ["a", "b"]

    def test_distinct_unchanged(self):
        assert len(cs(["a", "b", "c"])) == 3

    def test_normalization_equal_duplicates(self):
        out = cs(["The Moon", "the moon"])
        assert [c.text for c in out.candidates] == ["The Moon"]

    def test_idempotent(self):
        once = cs(["x y", "X Y", "z", "z!"])
        assert [c.text for c in once.candidates] == ["x y", "z"]
        again = CandidateSet(qid=once.qid, candidates=once.candidates)
        assert again.candidates == once.candidates

    @given(st.lists(st.tuples(
        st.sampled_from(["moon", "the moon", "x y", "apollo 11", "z"]),
        st.sampled_from([str, str.upper, str.title]),
        st.sampled_from(["", "!", ".", ", ", " ?"])), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_first_of_each_normalized_text(self, variants):
        texts = [case(base) + punct for base, case, punct in variants]
        first: dict[tuple, str] = {}
        for t in texts:
            first.setdefault(tuple(normalize(t)), t)
        built = cs(texts)
        assert [c.text for c in built.candidates] == list(first.values())
        rebuilt = CandidateSet(qid=built.qid, candidates=built.candidates)
        assert rebuilt.candidates == built.candidates


class TestTruncate:
    def test_head(self):
        out = truncate(cs([f"c{i}" for i in range(50)]), 5)
        assert [c.text for c in out.candidates] == [f"c{i}" for i in range(5)]

    def test_saturation(self):
        assert len(truncate(cs(["a", "b", "c"]), 10)) == 3

    def test_boundary(self):
        assert [c.text for c in truncate(cs(["a", "b"]), 1).candidates] == ["a"]

    def test_idempotent(self):
        base = cs([f"c{i}" for i in range(9)])
        assert truncate(truncate(base, 4), 4).candidates == \
            truncate(base, 4).candidates

    def test_invalid(self):
        with pytest.raises(ValueError):
            truncate(cs(["a"]), 0)


class TestStubSampler:
    def test_deterministic(self, planted_index, planted_store):
        a = sample_expansions_stub("what is this", 5, 7, planted_index, planted_store)
        b = sample_expansions_stub("what is this", 5, 7, planted_index, planted_store)
        assert [c.text for c in a.candidates] == [c.text for c in b.candidates]

    def test_seed_changes_output(self, planted_index, planted_store):
        a = sample_expansions_stub("what is this", 50, 7, planted_index, planted_store)
        b = sample_expansions_stub("what is this", 50, 8, planted_index, planted_store)
        assert [c.text for c in a.candidates] != [c.text for c in b.candidates]

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, planted_index, planted_store, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            sample_expansions_stub("q", n, 0, planted_index, planted_store)

    def test_singleton(self, planted_index, planted_store):
        out = sample_expansions_stub("q", 1, 0, planted_index, planted_store)
        assert len(out) == 1

    def test_distinct_before_dedup(self, planted_index, planted_store):
        out = sample_expansions_stub("what is this", 50, 3, planted_index,
                                     planted_store)
        assert len(out) == 50
        assert dedup(out.candidates) == out.candidates


class TestLoadExpansions:
    def write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_grouping(self, tmp_path):
        path = tmp_path / "e.jsonl"
        self.write(path, [{"qid": "q1", "generator_tag": "stub", "text": f"t{i}"}
                          for i in range(50)])
        out = load_expansions(path)
        assert len(out["q1"]) == 50

    def test_interleaved_order_preserved(self, tmp_path):
        path = tmp_path / "e.jsonl"
        self.write(path, [
            {"qid": "q1", "generator_tag": "answer", "text": "a1"},
            {"qid": "q2", "generator_tag": "answer", "text": "b1"},
            {"qid": "q1", "generator_tag": "answer", "text": "a2"},
        ])
        out = load_expansions(path)
        assert [c.text for c in out["q1"].candidates] == ["a1", "a2"]
        assert [c.text for c in out["q2"].candidates] == ["b1"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert load_expansions(path) == {}

    def test_unknown_tag_errors(self, tmp_path):
        path = tmp_path / "e.jsonl"
        self.write(path, [{"qid": "q1", "generator_tag": "bogus", "text": "x"}])
        with pytest.raises(ValueError, match="generator_tag"):
            load_expansions(path)

    @pytest.mark.parametrize("line,message", [
        ('{"generator_tag": "stub", "text": "x"}', "missing field 'qid'"),
        ('{"qid": "q1", "generator_tag": "stub"}', "missing field 'text'"),
        ('{"qid": "q1", "text": ', "malformed JSON"),
        ('["q1", "stub", "x"]', "expected a JSON object"),
        ('{"qid": "q1", "generator_tag": "stub", "text": "  "}',
         "expansion text is empty after trimming"),
        ('{"qid": "q1", "generator_tag": "stub", "text": null}',
         "text must be a str, got NoneType"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "e.jsonl"
        path.write_text('{"qid": "q0", "generator_tag": "stub", "text": "ok"}'
                        f"\n\n{line}\n")
        with pytest.raises(CorpusError) as info:
            load_expansions(path)
        assert str(info.value).startswith(f"{path}:3: {message}")

    def test_unknown_qid_warns_but_keeps(self, tmp_path, caplog):
        path = tmp_path / "e.jsonl"
        self.write(path, [{"qid": "qX", "generator_tag": "stub", "text": "x"}])
        out = load_expansions(path, known_qids={"q1"})
        assert "qX" in out
        assert any("qX" in rec.message for rec in caplog.records)


@pytest.fixture(scope="module")
def rank_fixture():
    # 20 equal-length passages all matching "blue"; ties resolve by pid, so
    # the answer passage sits at exactly rank 15.
    passages = [
        Passage(id=f"p{i:02d}", title="",
                text=f"blue junk{i:02d}" if i != 15 else "blue goldtoken")
        for i in range(1, 21)
    ]
    store = PassageStore(passages)
    return store, build_index(store, Bm25Params())


class TestLabelCandidates:
    def test_rank_positions(self, rank_fixture):
        store, index = rank_fixture
        qa = QAExample(qid="q", question="blue", answers=("goldtoken",))
        cands = cs(["goldtoken", "blue", "absentterm"])
        labels, lists = label_candidates(index, store, qa, cands, 100)
        assert labels[0] == 1            # answer passage pulled to the top
        assert labels[1] == 15           # tie-broken pid order
        assert labels[2] == 15           # unknown term adds nothing
        assert lists[0].pids()[:2] == ["p15", "p01"]

    def test_sentinel_for_miss(self, rank_fixture):
        store, index = rank_fixture
        qa = QAExample(qid="q", question="blue", answers=("neverthere",))
        labels, _ = label_candidates(index, store, qa, cs(["blue", "x"]), 10)
        assert labels == [11, 11]

    def test_labels_reproducible(self, planted, planted_store, planted_index,
                                 planted_cfg):
        qa = planted.questions[3]
        once = label_candidates(planted_index, planted_store, qa,
                                planted.candidates[qa.qid],
                                planted_cfg.k_retrieve)
        again = label_candidates(planted_index, planted_store, qa,
                                 planted.candidates[qa.qid],
                                 planted_cfg.k_retrieve)
        assert once == again


class TestAnswerMatchingOncePerQuestion:
    """Labeling and the oracle strategy share one answer matcher across a
    question's candidate lists, which overlap."""

    @pytest.mark.parametrize("label", [
        lambda index, store, qa, cands:
            label_candidates(index, store, qa, cands, 100),
        lambda index, store, qa, cands:
            run_strategy(StrategySpec("oracle"), index, store, qa, cands),
    ], ids=["label_candidates", "oracle"])
    def test_passage_and_answer_normalized_once(self, planted20, monkeypatch,
                                                label):
        fx, store, index = planted20
        texts = {p.text for p in store}
        assert len(texts) == len(store)
        seen = Counter()
        monkeypatch.setattr(corpus, "normalize",
                            lambda raw: seen.update([raw]) or normalize(raw))
        for qa in fx.questions:
            seen.clear()
            label(index, store, qa, fx.candidates[qa.qid])
            assert {a: seen[a] for a in qa.answers} == Counter(qa.answers)
            passages = {t: n for t, n in seen.items() if t in texts}
            assert passages and set(passages.values()) == {1}
            assert set(seen) <= texts | set(qa.answers)


# Few distinct words and duplicated passages, so scores tie often, at the
# question's k-th score too.
_WORD = st.sampled_from(("red", "blue", "green", "gold", "the", "of"))
_PHRASE = st.lists(_WORD, min_size=1, max_size=5).map(" ".join)


class TestSearchCandidates:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        passages = make_random_corpus(100, seed=7, vocab_size=300, doc_len=30)
        store = PassageStore(passages)
        return store, build_index(store, Bm25Params())

    def test_singleton_equals_search(self, small_corpus):
        store, index = small_corpus
        q, e = make_random_queries(2, list(store), seed=4)
        got = index.search_set(q, [e], 10).lists
        assert got[0].entries == reference_expanded_search(index, q, e, 10)

    def test_matches_sequential(self, small_corpus):
        store, index = small_corpus
        q, *texts = make_random_queries(50, list(store), seed=6)
        lists = index.search_set(q, texts, 20).lists
        assert len(lists) == len(texts)
        for text, rl in zip(texts, lists):
            assert rl.entries == reference_expanded_search(index, q, text, 20)

    def test_empty_set(self, small_corpus):
        """No empty set reaches a search, and a repeat is searched once."""
        store, index = small_corpus
        with pytest.raises(ValueError, match="empty candidate set for q1"):
            cs([])
        labels, lists = label_candidates(index, store,
                                         QAExample("q1", "q", ("a",)),
                                         cs(["w a", "W A!"]), 10)
        assert len(labels) == len(lists) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(_PHRASE, st.integers(1, 3)), min_size=1,
                    max_size=8),
           _PHRASE, st.lists(_PHRASE, min_size=1, max_size=4),
           st.sampled_from((1, 2, 100)), st.integers(0, 40))
    def test_by_parts_equals_the_reference(self, texts, question, others, k,
                                           filler):
        """Every path of a set's search equals the parts reference,
        fl(S_q + S_c) and a full tie-stable sort, bit for bit: candidates
        that repeat question terms, stopword-only (empty) parts, questions
        with fewer than k positive documents, and ties at the question's
        k-th score.  Selecting above that floor equals selecting from
        every positive document."""
        passages = [Passage(id=f"p{i:02d}.{j}", title="", text=text)
                    for i, (text, copies) in enumerate(texts)
                    for j in range(copies)]
        # passages on no list make posting lists short next to the corpus
        passages += [Passage(id=f"w{i:02d}", title="", text="white")
                     for i in range(filler)]
        index = build_index(PassageStore(passages), Bm25Params())
        # the first candidate repeats a question term
        candidate_set = cs([question.split()[0], *others])
        candidates = [c.text for c in candidate_set.candidates]
        q_ids = index.term_ids(question)
        ids = [index.term_ids(c) for c in candidates]
        for lists in (index.search_set(question, candidates, k).lists,
                      index._search_packed(q_ids, ids, k).lists,
                      index._search_dense(q_ids, ids, k).lists):
            for rl, c in zip(lists, candidates, strict=True):
                want = reference_expanded_search(index, question, c, k)
                assert rl.pids() == [pid for pid, _ in want]
                assert rl.scores.tobytes() == \
                    np.array([s for _, s in want]).tobytes()
        question_scores = index.score_all(q_ids)
        positive = np.sort(question_scores[question_scores > 0.0])
        floor = positive[-k] if len(positive) >= k else 0.0
        for c_ids in ids:
            scores = index.score_all(c_ids) + question_scores
            assert index._top(scores, floor, k) == \
                index._top(scores, 0.0, k)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_PHRASE, st.integers(1, 3)), min_size=1,
                    max_size=8),
           _PHRASE, st.lists(_PHRASE, min_size=1, max_size=4),
           st.sampled_from((1, 2)), st.integers(0, 40))
    def test_a_deeper_cut_equals_the_reference(self, texts, question, others,
                                               k, filler):
        """``SetSearch.top`` cuts any expansion's list at any depth from
        what the set's search kept, on every path, equal bit for bit to
        the parts reference at that depth: prefixes of the set's lists,
        and deeper lists from a packed row or the kept question vector,
        which no floor of the set's depth may cut short."""
        passages = [Passage(id=f"p{i:02d}.{j}", title="", text=text)
                    for i, (text, copies) in enumerate(texts)
                    for j in range(copies)]
        passages += [Passage(id=f"w{i:02d}", title="", text="white")
                     for i in range(filler)]
        index = build_index(PassageStore(passages), Bm25Params())
        candidates = [question.split()[0], question, *others]
        q_ids = index.term_ids(question)
        ids = [index.term_ids(c) for c in candidates]
        for found in (index.search_set(question, candidates, k),
                      index._search_packed(q_ids, ids, k),
                      index._search_dense(q_ids, ids, k)):
            for i, c in enumerate(candidates):
                for depth in (1, 2, 3, 100):
                    want = reference_expanded_search(index, question, c,
                                                     depth)
                    rl = found.top(i, depth)
                    assert rl.pids() == [pid for pid, _ in want]
                    assert rl.scores.tobytes() == \
                        np.array([s for _, s in want]).tobytes()

    def test_short_lists_pack_and_long_ones_do_not(self, planted,
                                                   planted_index,
                                                   monkeypatch):
        """A set whose rows, the question's and each candidate's, times
        their postings fit in the corpus is scored in one pass: every
        planted set.  A set over dense posting lists is scored on dense
        vectors: every set of the golden Zipf workload.  Both equal the
        parts reference."""
        passages, questions, sets = _zipf()
        zipf_index = build_index(PassageStore(passages), Bm25Params())
        packed = []
        search_packed = Index._search_packed

        def counting(self, *args, **kwargs):
            packed.append(args)
            return search_packed(self, *args, **kwargs)

        for index, qas, set_of, n_packed, n_checked in (
                (planted_index, planted.questions, planted.candidates, 1,
                 len(planted.questions)),
                (zipf_index, questions, sets, 0, 5)):
            for i, qa in enumerate(qas):
                candidates = set_of[qa.qid]
                with monkeypatch.context() as m:
                    m.setattr(Index, "_search_packed", counting)
                    lists = index.search_set(
                        qa.question, [c.text for c in candidates.candidates],
                        100).lists
                assert len(packed) == n_packed
                packed.clear()
                if i >= n_checked:
                    continue  # the reference is slow on dense lists
                for c, rl in zip(candidates.candidates, lists):
                    assert rl.entries == reference_expanded_search(
                        index, qa.question, c.text, 100)

    def test_labels_at_k1_through_the_argmax_branch(self, monkeypatch):
        """A set over dense posting lists, every set of the golden Zipf
        workload, is scored on dense vectors, and at k=1 labeling searches
        at k=2, where ``_top`` takes argmax passes.  Each label is the
        k=100 label capped at 2, and each list is the first 2 entries of
        the k=100 list."""
        passages, questions, sets = _zipf()
        store = PassageStore(passages)
        index = build_index(store, Bm25Params())
        depths = []
        search_dense = Index._search_dense

        def counting(self, question_ids, expansion_id_lists, k):
            depths.append(k)
            return search_dense(self, question_ids, expansion_id_lists, k)

        def no_packing(*args, **kwargs):
            raise AssertionError("a dense set was packed")

        monkeypatch.setattr(Index, "_search_dense", counting)
        monkeypatch.setattr(Index, "_search_packed", no_packing)
        seen = Counter()
        for qa in questions:
            candidates = sets[qa.qid]
            labels, lists = label_candidates(index, store, qa, candidates, 1)
            labels_100, lists_100 = label_candidates(index, store, qa,
                                                     candidates, 100)
            assert labels == [min(r, 2) for r in labels_100]
            assert lists == [rl.head(2) for rl in lists_100]
            seen.update(labels_100)
        assert depths == [2, 100] * len(questions)
        # hits at rank 1, hits below it and misses all occur
        assert seen[1] and seen[101] and len(seen) > 2

    def test_one_candidate_is_never_packed(self, planted, planted_index,
                                           monkeypatch):
        """A set of one candidate, as ``retrieve`` searches its choice, is
        scored on dense vectors even where every planted set of several
        packs, and equals the parts reference."""
        def no_packing(*args, **kwargs):
            raise AssertionError("a one-candidate set was packed")

        monkeypatch.setattr(Index, "_search_packed", no_packing)
        for qa in planted.questions:
            candidate = planted.candidates[qa.qid].candidates[0]
            (rl,) = planted_index.search_set(qa.question,
                                             [candidate.text], 100).lists
            assert rl.entries == reference_expanded_search(
                planted_index, qa.question, candidate.text, 100)


class TestStoredPair:
    @pytest.mark.parametrize("k_retrieve", [1, 2, 100])
    def test_equals_k2_search(self, planted, planted_store, planted_index,
                              k_retrieve):
        examples = build_training_set(
            planted_store, planted_index, planted.questions[:10],
            ConstructionConfig(k_retrieve=k_retrieve),
            lambda qa, fold: planted.candidates[qa.qid])
        for ex in examples:
            for c, pair in zip(ex.candidates.candidates, ex.top2):
                assert pair == reference_expanded_search(
                    planted_index, ex.question, c.text, 2)

    @pytest.mark.parametrize("k_retrieve", [1, 2, 100])
    def test_lists_equal_the_expanded_searches(
            self, planted, planted_store, planted_index, k_retrieve):
        for qa in planted.questions[:10]:
            cands = planted.candidates[qa.qid]
            _, lists = label_candidates(planted_index, planted_store, qa,
                                        cands, k_retrieve)
            for c, rl in zip(cands.candidates, lists):
                assert rl.entries == reference_expanded_search(
                    planted_index, qa.question, c.text, max(k_retrieve, 2))

    def test_rank_counts_only_first_k_retrieve(self, rank_fixture):
        store, index = rank_fixture
        qa = QAExample(qid="q", question="blue", answers=("goldtoken",))
        labels, lists = label_candidates(index, store, qa, cs(["blue"]), 1)
        assert labels == [2]  # answer at rank 15
        assert len(lists[0]) == 2


class TestLoadTrainingSet:
    @pytest.fixture()
    def row(self):
        return {
            "qid": "q1", "question": "who",
            "candidates": [{"text": "a b", "generator_tag": "stub"},
                           {"text": "c d", "generator_tag": "stub"}],
            "labels": [1, 101],
            "top2": [[["p1", 2.5], ["p2", 1.0]], []],
        }

    def write(self, tmp_path, rows):
        path = tmp_path / "train.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_valid_row_loads(self, row, tmp_path):
        ex, = load_training_set(self.write(tmp_path, [row]))
        assert ex.top2 == [[("p1", 2.5), ("p2", 1.0)], []]

    def test_old_top1_format_asks_for_make_train(self, row, tmp_path):
        del row["top2"]
        row["top1"] = ["p1", None]
        path = self.write(tmp_path, [row])
        with pytest.raises(ValueError, match="re-run make-train") as exc:
            load_training_set(path)
        assert f"{path}:1" in str(exc.value)

    @pytest.mark.parametrize("damage", [
        lambda r: r.pop("labels"),
        lambda r: r["labels"].pop(),
        lambda r: r["top2"].pop(),
        lambda r: r["labels"].__setitem__(0, 0),
        lambda r: r["candidates"][0].update(extra=1),
        lambda r: r["top2"][1].extend([["p1", 2.0]] * 3),
        lambda r: r["top2"][0][1].__setitem__(1, float("nan")),
        lambda r: r["top2"][0][1].__setitem__(1, "1.0"),
        lambda r: r["top2"][0][1].__setitem__(0, 7),
        lambda r: r["top2"].__setitem__(1, "p1"),
        lambda r: r["labels"].__setitem__(0, 2.5),
        lambda r: r["labels"].__setitem__(0, True),
    ], ids=["missing-key", "labels-short", "top2-short",
            "rank-zero", "unknown-candidate-key", "three-entries",
            "nan-score", "string-score", "int-pid", "not-a-list",
            "float-rank", "bool-rank"])
    def test_damage_rejected_with_line(self, row, tmp_path, damage):
        intact = copy.deepcopy(row)
        damage(row)
        path = self.write(tmp_path, [intact, row])
        with pytest.raises(ValueError, match=f"{path.name}:2: "):
            load_training_set(path)

    @pytest.mark.parametrize("damage,message", [
        (lambda r: r.update(candidates=[], labels=[], top2=[]),
         "empty candidate set for q1"),
        (lambda r: r["candidates"][1].update(text="A b!"),
         "a candidate repeats the normalized text of an earlier one"),
    ], ids=["no-candidates", "repeated-candidate"])
    def test_candidate_set_rejected_with_line(self, row, tmp_path, damage,
                                              message):
        damage(row)
        path = self.write(tmp_path, [row])
        with pytest.raises(CorpusError) as info:
            load_training_set(path)
        assert str(info.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("damage,message", [
        (lambda r: r["top2"][0].reverse(),
         "top2[0] scores rise (1.0 before 2.5)"),
        (lambda r: r["top2"][0][1].__setitem__(0, "p1"),
         "top2[0] repeats pid 'p1'"),
    ], ids=["rising-scores", "repeated-pid"])
    def test_top2_pair_rejected_with_line(self, row, tmp_path, damage,
                                          message):
        damage(row)
        path = self.write(tmp_path, [row])
        with pytest.raises(CorpusError) as info:
            load_training_set(path)
        assert str(info.value) == f"{path}:1: {message}"

    def test_tied_top2_scores_load(self, row, tmp_path):
        row["top2"][0][1][1] = 2.5
        ex, = load_training_set(self.write(tmp_path, [row]))
        assert ex.top2[0] == [("p1", 2.5), ("p2", 2.5)]

    def test_unknown_top2_pid_names_line_and_qid(self, row, tmp_path):
        path = self.write(tmp_path, [row])
        assert len(load_training_set(path, known_pids={"p1", "p2"})) == 1
        with pytest.raises(CorpusError) as info:
            load_training_set(path, known_pids={"p1"})
        assert str(info.value) == (f"{path}:1: qid q1: top2[0] names "
                                   f"passage 'p2', which the corpus lacks")

    def test_bad_json_names_line(self, row, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(json.dumps(row) + "\n{not json\n")
        with pytest.raises(ValueError, match=f"{path.name}:2: "):
            load_training_set(path)


class TestFolds:
    def test_balanced_partition(self):
        folds = assign_folds([f"q{i}" for i in range(10)], 5, seed=1)
        sizes = [list(folds.values()).count(f) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_stable_under_reordering(self):
        qids = [f"q{i}" for i in range(30)]
        assert assign_folds(qids, 5, 3) == assign_folds(list(reversed(qids)), 5, 3)

    def test_seed_changes_assignment(self):
        qids = [f"q{i}" for i in range(30)]
        assert assign_folds(qids, 5, 0) != assign_folds(qids, 5, 1)


class TestBuildTrainingSet:
    def test_too_few_questions(self, planted, planted_store, planted_index):
        cfg = ConstructionConfig(folds=5)
        with pytest.raises(ValueError):
            build_training_set(planted_store, planted_index,
                               planted.questions[:3], cfg,
                               lambda qa, f: planted.candidates[qa.qid])

    def test_deterministic(self, planted, planted_store, planted_index,
                           planted_cfg):
        qa = planted.questions[:10]
        gen = lambda q, f: planted.candidates[q.qid]
        a = build_training_set(planted_store, planted_index, qa, planted_cfg, gen)
        b = build_training_set(planted_store, planted_index, qa, planted_cfg, gen)
        assert [(ex.qid, ex.labels) for ex in a] == \
            [(ex.qid, ex.labels) for ex in b]

    def test_question_without_answers_named(self, planted20, no_answers):
        fx, store, index = planted20
        cands = fx.candidates[fx.questions[0].qid]
        with pytest.raises(ValueError, match="^question noans has no answers$"):
            build_training_set(store, index, fx.questions + [no_answers],
                               ConstructionConfig(), lambda qa, fold: cands)

    def test_planted_candidate_dominates(self, planted, planted_train_set):
        wins = sum(
            1 for ex in planted_train_set
            if ex.labels[planted.useful_index[ex.qid]]
            < min(r for i, r in enumerate(ex.labels)
                  if i != planted.useful_index[ex.qid])
        )
        assert wins / len(planted_train_set) >= 0.95

    def test_min_label_is_oracle_rank(self, planted_train_set):
        # cross-module consistency: best label equals the best single-query rank
        for ex in planted_train_set[:20]:
            assert min(ex.labels) == 1

    def test_jsonl_round_trip(self, planted_train_set, tmp_path):
        path = tmp_path / "train.jsonl"
        save_training_set(planted_train_set[:5], path)
        loaded = load_training_set(path)
        assert len(loaded) == 5
        for a, b in zip(planted_train_set[:5], loaded):
            assert a.qid == b.qid
            assert a.labels == b.labels
            assert a.top2 == b.top2
