import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank.corpus import CorpusError, Passage, PassageStore, QAExample
from expandrank.expansion import (CandidateSet, ConstructionConfig,
                                  ExpansionCandidate, assign_folds,
                                  build_training_set, dedup, expanded_query,
                                  label_candidates, load_expansions,
                                  load_training_set, sample_expansions_stub,
                                  save_training_set, search_candidates,
                                  truncate)
from expandrank.index import Bm25Params, build_index
from expandrank.synth import make_random_corpus, make_random_queries
from expandrank.text import normalize


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
        labels, top2 = label_candidates(index, store, qa, cands, 100)
        assert labels[0].r == 1            # answer passage pulled to the top
        assert labels[1].r == 15           # tie-broken pid order
        assert labels[2].r == 15           # unknown term adds nothing
        assert [pid for pid, _ in top2[0]] == ["p15", "p01"]

    def test_sentinel_for_miss(self, rank_fixture):
        store, index = rank_fixture
        qa = QAExample(qid="q", question="blue", answers=("neverthere",))
        labels, _ = label_candidates(index, store, qa, cs(["blue", "x"]), 10)
        assert all(l.r == 11 and not l.hit for l in labels)

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


class TestSearchCandidates:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        passages = make_random_corpus(100, seed=7, vocab_size=300, doc_len=30)
        store = PassageStore(passages)
        return store, build_index(store, Bm25Params())

    def test_singleton_equals_search(self, small_corpus):
        store, index = small_corpus
        q, e = make_random_queries(2, list(store), seed=4)
        got = search_candidates(index, q, cs([e]), 10, "q0")
        assert got[0].entries == \
            index.search(expanded_query(q, e), 10, qid="q0").entries

    def test_matches_sequential(self, small_corpus):
        store, index = small_corpus
        q, *texts = make_random_queries(50, list(store), seed=6)
        lists = search_candidates(index, q, cs(texts), 20, "q0")
        assert len(lists) == len(texts)
        for text, rl in zip(texts, lists):
            assert rl.qid == "q0"
            assert rl.entries == index.search(expanded_query(q, text), 20).entries

    def test_empty_set(self, small_corpus):
        """No empty set reaches a search, and a repeat is searched once."""
        _, index = small_corpus
        with pytest.raises(ValueError, match="empty candidate set for q1"):
            search_candidates(index, "q", cs([]), 10, "q0")
        assert len(search_candidates(index, "q", cs(["w a", "W A!"]), 10,
                                     "q0")) == 1


class TestStoredPair:
    @pytest.mark.parametrize("k_retrieve", [1, 2, 100])
    def test_equals_k2_search(self, planted, planted_store, planted_index,
                              k_retrieve):
        for qa in planted.questions[:10]:
            cands = planted.candidates[qa.qid]
            _, top2 = label_candidates(planted_index, planted_store, qa,
                                       cands, k_retrieve)
            for c, pair in zip(cands.candidates, top2):
                assert pair == planted_index.search(
                    expanded_query(qa.question, c.text), 2).entries

    def test_rank_counts_only_first_k_retrieve(self, rank_fixture):
        store, index = rank_fixture
        qa = QAExample(qid="q", question="blue", answers=("goldtoken",))
        labels, top2 = label_candidates(index, store, qa, cs(["blue"]), 1)
        assert labels[0].r == 2 and not labels[0].hit  # answer at rank 15
        assert len(top2[0]) == 2


class TestLoadTrainingSet:
    @pytest.fixture()
    def row(self):
        return {
            "qid": "q1", "question": "who",
            "candidates": [{"text": "a b", "generator_tag": "stub"},
                           {"text": "c d", "generator_tag": "stub"}],
            "labels": [{"index": 0, "r": 1, "hit": True},
                       {"index": 1, "r": 101, "hit": False}],
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
        lambda r: r["labels"][1].update(index=0),
        lambda r: r["labels"][0].update(r=0),
        lambda r: r["candidates"][0].update(extra=1),
        lambda r: r["top2"][1].extend([["p1", 2.0]] * 3),
        lambda r: r["top2"][0][1].__setitem__(1, float("nan")),
        lambda r: r["top2"][0][1].__setitem__(1, "1.0"),
        lambda r: r["top2"][0][1].__setitem__(0, 7),
        lambda r: r["top2"].__setitem__(1, "p1"),
        lambda r: r["labels"][0].update(r=2.5),
        lambda r: r["labels"][0].update(r=True),
        lambda r: r["labels"][0].update(hit="yes"),
        lambda r: r["labels"][0].update(hit=1),
    ], ids=["missing-key", "labels-short", "top2-short", "label-index",
            "rank-zero", "unknown-candidate-key", "three-entries",
            "nan-score", "string-score", "int-pid", "not-a-list",
            "float-rank", "bool-rank", "string-hit", "int-hit"])
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
        assert [(ex.qid, [l.r for l in ex.labels]) for ex in a] == \
            [(ex.qid, [l.r for l in ex.labels]) for ex in b]

    def test_planted_candidate_dominates(self, planted, planted_train_set):
        wins = sum(
            1 for ex in planted_train_set
            if ex.labels[planted.useful_index[ex.qid]].r
            < min(l.r for i, l in enumerate(ex.labels)
                  if i != planted.useful_index[ex.qid])
        )
        assert wins / len(planted_train_set) >= 0.95

    def test_min_label_is_oracle_rank(self, planted_train_set):
        # cross-module consistency: best label equals the best single-query rank
        for ex in planted_train_set[:20]:
            assert min(l.r for l in ex.labels) == 1

    def test_jsonl_round_trip(self, planted_train_set, tmp_path):
        path = tmp_path / "train.jsonl"
        save_training_set(planted_train_set[:5], path)
        loaded = load_training_set(path)
        assert len(loaded) == 5
        for a, b in zip(planted_train_set[:5], loaded):
            assert a.qid == b.qid
            assert [l.r for l in a.labels] == [l.r for l in b.labels]
            assert a.top2 == b.top2


class TestExpandedQuery:
    def test_single_space_concat(self):
        assert expanded_query("who won", "the 1998 final") == "who won the 1998 final"
