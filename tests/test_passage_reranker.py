import gc
import itertools
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank.corpus import Passage, PassageStore, QAExample
from expandrank.index import Bm25Params, build_index
from expandrank.passage_reranker import (BIAS, PassageScorer, PRTrainConfig,
                                         passage_features, rerank_passages,
                                         train_passage_reranker)
from expandrank.synth import make_random_corpus
from expandrank.text import Analyzer, normalize
from oracles import reference_passage_features

LENGTH = 3  # column of the passage-length feature

# Stopwords, inflected and repeated forms, upper case, an NFKC ligature,
# digits and punctuation-joined tokens.
_WORDS = ("the", "of", "is", "Running", "runs", "ran", "ponies", "sky",
          "hopping", "2018", "\ufb01ve", "x1", "Deadpool-2")
_text = st.lists(
    st.one_of(st.sampled_from(_WORDS),
              st.text(alphabet="abeinrst19", min_size=1, max_size=6)),
    min_size=1, max_size=10,
).map(" ".join)


def reference_rerank(scorer, index, store, question, rl, depth):
    """``rerank_passages`` over (pid, score) tuples, with features computed
    from scratch."""
    entries = rl.entries
    depth = min(depth, len(entries))
    head, tail = entries[:depth], entries[depth:]
    probs = scorer.probability(reference_matrix(index, store, question,
                                                head)).tolist()
    floor = tail[0][1] if tail else 0.0
    order = sorted(range(depth), key=lambda i: (-probs[i], i))
    return [(head[i][0], floor + probs[i]) for i in order] + tail


def reference_matrix(index, store, question, entries):
    """``reference_passage_features`` rows of (pid, score) ``entries``."""
    return np.array([
        reference_passage_features(index, store, question, pid, score)
        for pid, score in entries]).reshape(len(entries), 5)


def list_features(index, store, question, rl):
    return passage_features(index, store, question, rl.pids(), rl.scores)


@pytest.fixture(scope="module")
def deep_fixture():
    """Answer passage buried at rank 40 behind 39 tied relatives."""
    passages = []
    questions = []
    for q in range(12):
        topic = f"subject{q:02d}"
        for j in range(39):
            passages.append(Passage(
                id=f"t{q:02d}-a{j:02d}", title="",
                text=f"{topic} common filler words here pad pad",
            ))
        passages.append(Passage(
            id=f"t{q:02d}-zans", title="",
            text=f"{topic} rareterm{q:02d}x gold{q:02d}tok pad pad pad pad",
        ))
        questions.append(QAExample(qid=f"t{q:02d}", question=f"about {topic}",
                                   answers=(f"gold{q:02d}tok",)))
    store = PassageStore(passages)
    return store, build_index(store, Bm25Params()), questions


class TestTraining:
    def test_separable_fixture_accuracy(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions,
                                        PRTrainConfig(train_depth=40))
        correct = total = 0
        for qa in questions:
            rl = index.search(qa.question, 40, qid=qa.qid)
            probs = scorer.probability(list_features(index, store,
                                                     qa.question, rl))
            for pid, p in zip(rl.pids(), probs):
                is_answer = pid.endswith("zans")
                correct += (p >= 0.5) == is_answer
                total += 1
        assert correct / total >= 0.95

    def test_all_negative_no_crash(self, deep_fixture):
        store, index, _ = deep_fixture
        hopeless = [QAExample(qid="n1", question="about subject00",
                              answers=("neverpresent",))]
        scorer = train_passage_reranker(index, store, hopeless)
        rl = index.search("about subject00", 10, qid="n1")
        probs = scorer.probability(list_features(index, store,
                                                 "about subject00", rl))
        assert all(p < 0.5 for p in probs)

    def test_deterministic(self, deep_fixture):
        store, index, questions = deep_fixture
        a = train_passage_reranker(index, store, questions, PRTrainConfig(seed=2))
        b = train_passage_reranker(index, store, questions, PRTrainConfig(seed=2))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_zero_retrieval_skipped_with_warning(self, deep_fixture, caplog):
        store, index, questions = deep_fixture
        mixed = questions + [QAExample(qid="void", question="xyzzy quux",
                                       answers=("nothing",))]
        train_passage_reranker(index, store, mixed)
        assert any("void" in rec.message for rec in caplog.records)


class TestPassageFeatures:
    @given(passages=st.lists(st.tuples(st.one_of(st.just(""), _text), _text),
                             min_size=1, max_size=6),
           questions=st.lists(_text, min_size=1, max_size=4),
           params=st.builds(Bm25Params, stemming=st.booleans(),
                            stopwords=st.booleans(),
                            index_titles=st.booleans()))
    @settings(max_examples=100, deadline=None)
    def test_cached_equal_reference(self, passages, questions, params):
        store = PassageStore([Passage(id=f"p{i}", title=title, text=text)
                              for i, (title, text) in enumerate(passages)])
        index = build_index(store, params)
        scores = [float(i) for i in range(len(index.pids))]
        # a whole list per question, then one passage per call, passage-major
        # so that the question changes between consecutive calls
        for q in questions:
            assert passage_features(index, store, q, index.pids,
                                    scores).tobytes() == reference_matrix(
                index, store, q, list(zip(index.pids, scores))).tobytes()
        for (pid, score), q in itertools.product(zip(index.pids, scores),
                                                 questions):
            np.testing.assert_array_equal(
                passage_features(index, store, q, [pid], [score]),
                reference_matrix(index, store, q, [(pid, score)]))

    def test_each_surface_token_analyzed_once(self, deep_fixture, pr_scorer,
                                              monkeypatch):
        store, _, questions = deep_fixture
        index = build_index(store, Bm25Params())  # nothing cached yet
        calls = Counter()
        analyze = Analyzer.__call__

        def counting(self, raw):
            calls[raw] += 1
            return analyze(self, raw)

        monkeypatch.setattr(Analyzer, "__call__", counting)
        reranked = set()
        for _ in range(2):
            for qa in questions:
                rl = index.search(qa.question, 40, qid=qa.qid)
                rerank_passages(pr_scorer, index, store, qa.question, rl, 40)
                reranked.update(rl.pids())
        surface = {t for pid in reranked for t in normalize(store.get(pid).text)}
        searched = {qa.question for qa in questions}
        assert set(calls) - searched == surface
        assert all(calls[t] == 1 for t in surface)

    def test_another_store_is_read_not_the_cached_one(self):
        params = Bm25Params()
        first = PassageStore([Passage(id="p0", title="", text="alpha beta"),
                              Passage(id="p1", title="", text="gamma")])
        index = build_index(first, params)
        edited = PassageStore([Passage(id="p0", title="",
                                       text="gamma gamma delta alpha"),
                               Passage(id="p1", title="", text="gamma")])
        for store in (first, edited, first):
            np.testing.assert_array_equal(
                passage_features(index, store, "alpha", ["p0", "p1"],
                                 [1.0, 0.5]),
                reference_matrix(index, store, "alpha",
                                 [("p0", 1.0), ("p1", 0.5)]))

    def test_cache_dies_with_its_index(self, deep_fixture):
        store, _, questions = deep_fixture
        index = build_index(store, Bm25Params())
        passage_features(index, store, questions[0].question,
                         index.pids[:1], [1.0])
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None


class TestConstantFeature:
    @pytest.fixture(scope="class")
    def fixed_length(self):
        """Every passage has 40 tokens, so the length feature is constant;
        each question is a 4-token span of a passage, its answer the first 3
        tokens of that span."""
        passages = make_random_corpus(100, seed=3, vocab_size=2000, doc_len=40)
        rng = random.Random(0)
        questions = []
        for i in range(30):
            tokens = passages[rng.randrange(len(passages))].text.split()
            s = rng.randrange(len(tokens) - 3)
            questions.append(QAExample(
                qid=f"q{i}", question=" ".join(tokens[s:s + 4]),
                answers=(" ".join(tokens[s:s + 3]),)))
        store = PassageStore(passages)
        return store, build_index(store, Bm25Params()), questions

    def test_trains_and_reranks(self, fixed_length):
        store, index, questions = fixed_length
        scorer = train_passage_reranker(index, store, questions)
        assert scorer.weights[LENGTH] == 0.0
        assert scorer.weights[BIAS] != 0.0
        for qa in questions:
            rl = index.search(qa.question, 10, qid=qa.qid)
            out = rerank_passages(scorer, index, store, qa.question, rl, 10)
            assert all(0.0 <= p <= 1.0 for _, p in out.entries)

    def test_probability_saturates_without_overflow(self):
        scorer = PassageScorer(np.array([1000.0, 0, 0, 0, 0]), np.zeros(5),
                               np.ones(5))
        probs = scorer.probability(np.array([[-5.0, 0, 0, 0, 1],
                                             [5.0, 0, 0, 0, 1]]))
        assert probs.tolist() == [0.0, 1.0]


class TestRerank:
    def test_depth_one_unchanged(self, deep_fixture, pr_scorer):
        store, index, questions = deep_fixture
        qa = questions[0]
        rl = index.search(qa.question, 40, qid=qa.qid)
        out = rerank_passages(pr_scorer, index, store, qa.question, rl, depth=1)
        assert out.pids() == rl.pids()

    def test_bm25_only_scorer_preserves_order(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = PassageScorer(np.array([1.0, 0, 0, 0, 0]),
                               np.zeros(5), np.ones(5))
        qa = questions[0]
        rl = index.search(qa.question, 40, qid=qa.qid)
        out = rerank_passages(scorer, index, store, qa.question, rl,
                              depth=len(rl))
        assert out.pids() == rl.pids()

    @pytest.mark.parametrize("depth", [1, 5, 20, 39])
    def test_scores_never_increase(self, deep_fixture, pr_scorer, depth):
        store, index, questions = deep_fixture
        for qa in questions:
            rl = index.search(qa.question, 40, qid=qa.qid)
            out = rerank_passages(pr_scorer, index, store, qa.question, rl,
                                  depth)
            out.validate()
            assert out.entries[depth:] == rl.entries[depth:]

    def test_full_depth_scores_are_probabilities(self, deep_fixture,
                                                 pr_scorer):
        store, index, questions = deep_fixture
        qa = questions[3]
        rl = index.search(qa.question, 40, qid=qa.qid)
        out = rerank_passages(pr_scorer, index, store, qa.question, rl, 40)
        by_pid = dict(rl.entries)
        assert [s for _, s in out.entries] == pr_scorer.probability(
            passage_features(index, store, qa.question, out.pids(),
                             [by_pid[pid] for pid in out.pids()])).tolist()

    @pytest.mark.parametrize("depth", [1, 7, 40, 100])
    def test_equals_reranking_with_reference_features(
            self, planted, planted_store, planted_index, pr_scorer, depth):
        for qa in planted.questions[:40]:
            rl = planted_index.search(qa.question, 60, qid=qa.qid)
            out = rerank_passages(pr_scorer, planted_index, planted_store,
                                  qa.question, rl, depth)
            assert out.entries == reference_rerank(
                pr_scorer, planted_index, planted_store, qa.question, rl,
                depth)

    def test_permutation_of_prefix_only(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions,
                                        PRTrainConfig(train_depth=40))
        qa = questions[1]
        rl = index.search(qa.question, 40, qid=qa.qid)
        out = rerank_passages(scorer, index, store, qa.question, rl, depth=20)
        assert sorted(out.pids()[:20]) == sorted(rl.pids()[:20])
        assert out.pids()[20:] == rl.pids()[20:]

    def test_buried_answer_recovered(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions,
                                        PRTrainConfig(train_depth=40))
        lifted = 0
        for qa in questions:
            rl = index.search(qa.question, 100, qid=qa.qid)
            assert rl.pids().index(f"{qa.qid}-zans") == 39  # buried by ties
            out = rerank_passages(scorer, index, store, qa.question, rl,
                                  depth=100)
            if f"{qa.qid}-zans" in out.pids()[:5]:
                lifted += 1
        assert lifted / len(questions) >= 0.8

    def test_idempotent(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions)
        qa = questions[2]
        rl = index.search(qa.question, 40, qid=qa.qid)
        once = rerank_passages(scorer, index, store, qa.question, rl, depth=40)
        twice = rerank_passages(scorer, index, store, qa.question, once, depth=40)
        assert twice.pids() == once.pids()

    def test_depth_clamped(self, deep_fixture, pr_scorer):
        store, index, questions = deep_fixture
        qa = questions[0]
        rl = index.search(qa.question, 10, qid=qa.qid)
        out = rerank_passages(pr_scorer, index, store, qa.question, rl, depth=999)
        assert len(out) == len(rl)


class TestSerialization:
    def test_round_trip(self, pr_scorer, tmp_path):
        path = tmp_path / "pr.json"
        pr_scorer.save(path)
        loaded = PassageScorer.load(path)
        f = np.linspace(0, 1, 10).reshape(2, 5)
        np.testing.assert_array_equal(loaded.probability(f),
                                      pr_scorer.probability(f))
