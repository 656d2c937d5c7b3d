import gc
import itertools
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import passage_reranker, text
from expandrank.corpus import Passage, PassageStore, QAExample
from expandrank.index import Bm25Params, RankedList, build_index
from expandrank.passage_reranker import (BIAS, NothingRetrieved,
                                         PassageScorer, PRTrainConfig,
                                         passage_features,
                                         rerank_passages,
                                         train_passage_reranker)
from expandrank.synth import make_random_corpus
from expandrank.text import Analyzer, normalize
from oracles import reference_passage_features

LENGTH = 3  # column of the passage-length feature

# Stopwords, inflected and repeated forms, upper case, an NFKC ligature,
# digits and punctuation-joined tokens; fullwidth letters, a dotted capital
# I and a sharp s, which fold into token boundaries; tokens that are a
# prefix, a suffix or an infix of another.
_WORDS = ("the", "of", "is", "Running", "runs", "ran", "ponies", "sky",
          "hopping", "2018", "\ufb01ve", "x1", "Deadpool-2",
          "\uff32\uff35\uff2e\uff33", "\u0130s", "stra\u00dfe", "run-runs",
          "x1x", "1x")
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
            rl = index.search(qa.question, 40)
            probs = scorer.probability(passage_features(index, qa.question,
                                                        rl))
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
        rl = index.search("about subject00", 10)
        probs = scorer.probability(passage_features(index, "about subject00",
                                                    rl))
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

    def test_nothing_retrieved_counts_the_questions(self, deep_fixture):
        store, index, _ = deep_fixture
        void = [QAExample(qid=f"v{i}", question=f"xyzzy{i} quux",
                          answers=("nothing",)) for i in range(3)]
        with pytest.raises(NothingRetrieved,
                           match="^no training instances: none of the 3 "
                                 "questions retrieved a passage$"):
            train_passage_reranker(index, store, void)

    def test_question_without_answers_named(self, planted20, no_answers):
        fx, store, index = planted20
        with pytest.raises(ValueError, match="^question noans has no answers$"):
            train_passage_reranker(index, store, fx.questions + [no_answers])


# Word forms that stem to one term, stopwords, and words found only in titles;
# question tokens that no passage holds, two of them stem-merged; text with no
# token at all.
_BODY_WORDS = ("run", "runs", "running", "Running", "pony", "ponies", "hop",
               "hopping", "sky", "2018", "\ufb01ve", "the", "of", "is")
_TITLE_WORDS = ("ledger", "ledgers", "atlas", "the", "runs")
_UNSEEN_WORDS = ("zebra", "zebras", "quux")
_NO_TOKEN = ("", " ", "-", "?!", "\u2014")


def _words(pool, min_size):
    return st.lists(st.sampled_from(pool), min_size=min_size,
                    max_size=6).map(" ".join)


_overlap_question = st.one_of(
    _words(_BODY_WORDS + _TITLE_WORDS + _UNSEEN_WORDS, 1),
    _words(sorted(text.STOPWORDS), 1),
    st.sampled_from(_NO_TOKEN))


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
            assert passage_features(index, q, RankedList(
                index.pids, scores)).tobytes() == reference_matrix(
                index, store, q, list(zip(index.pids, scores))).tobytes()
        for (pid, score), q in itertools.product(zip(index.pids, scores),
                                                 questions):
            np.testing.assert_array_equal(
                passage_features(index, q, RankedList([pid], [score])),
                reference_matrix(index, store, q, [(pid, score)]))

    @given(passages=st.lists(st.tuples(_words(_TITLE_WORDS, 0),
                                       _words(_BODY_WORDS, 1)),
                             min_size=1, max_size=6),
           questions=st.lists(_overlap_question, min_size=1, max_size=4),
           params=st.builds(Bm25Params, stemming=st.booleans(),
                            stopwords=st.booleans(),
                            index_titles=st.booleans()))
    @settings(max_examples=200, deadline=None)
    def test_overlap_equals_brute_analysis(self, passages, questions, params):
        """The overlap column, with the rest of the matrix, equals the
        share the reference finds by analyzing each passage and question
        token: stopwords and stem-merged forms, question tokens outside
        the vocabulary, questions of stopwords only or of no token, and
        terms found only in a title."""
        store = PassageStore([Passage(id=f"p{i}", title=title, text=body)
                              for i, (title, body) in enumerate(passages)])
        index = build_index(store, params)
        scores = [float(i) for i in range(len(index.pids))]
        for q in questions:
            assert passage_features(index, q, RankedList(
                index.pids, scores)).tobytes() == reference_matrix(
                index, store, q, list(zip(index.pids, scores))).tobytes()

    def test_each_surface_token_analyzed_once(self, deep_fixture, pr_scorer,
                                              monkeypatch):
        """The passage statistics are the index's own, so reranking
        analyzes no passage token: only the searches analyze, each question
        token once through the index's token map."""
        store, _, questions = deep_fixture
        index = build_index(store, Bm25Params())  # no token looked up yet
        calls = Counter()
        analyze = Analyzer.term

        def counting(self, token):
            calls[token] += 1
            return analyze(self, token)

        monkeypatch.setattr(Analyzer, "term", counting)
        for _ in range(2):
            for qa in questions:
                rl = index.search(qa.question, 40)
                rerank_passages(pr_scorer, index, qa.question, rl, 40)
        asked = {t for qa in questions for t in normalize(qa.question)}
        assert calls == Counter(dict.fromkeys(asked, 1))

    def test_every_column_follows_the_index(self):
        """A list's matrix is the one the store that built its index gives,
        whatever another store holds for the same pids, and calls on two
        indexes in turn keep nothing of each other."""
        params = Bm25Params()
        first = PassageStore([Passage(id="p0", title="", text="alpha beta"),
                              Passage(id="p1", title="", text="gamma")])
        edited = PassageStore([Passage(id="p0", title="",
                                       text="gamma gamma delta"),
                               Passage(id="p1", title="", text="alpha")])
        indexed = [(store, build_index(store, params), overlap)
                   for store, overlap in ((first, [1.0, 0.0]),
                                          (edited, [0.0, 1.0]))]
        entries = [("p0", 1.0), ("p1", 0.5)]
        for store, index, overlap in indexed + indexed[:1]:
            want = reference_matrix(index, store, "alpha", entries)
            assert want[:, 1].tolist() == overlap
            assert passage_features(index, "alpha", RankedList(
                ["p0", "p1"], [1.0, 0.5])).tobytes() == want.tobytes()

    def test_one_normalize_per_list_once_warm(self, deep_fixture, pr_scorer,
                                              monkeypatch):
        """Every call, on a fresh index or a used one, normalizes only the
        question: every column but the score comes from the index, the
        overlap from the question's terms' posting lists."""
        store, _, questions = deep_fixture
        index = build_index(store, Bm25Params())
        lists = [(qa.question, index.search(qa.question, 40))
                 for qa in questions]
        calls = []
        original = text.normalize

        def counting(raw):
            calls.append(raw)
            return original(raw)

        for module in (text, passage_reranker):
            monkeypatch.setattr(module, "normalize", counting)
        for _ in range(2):
            for question, rl in lists:
                calls.clear()
                rerank_passages(pr_scorer, index, question, rl, 40)
                assert calls == [question]

    def test_unknown_pid_named(self, deep_fixture):
        store, index, _ = deep_fixture
        with pytest.raises(ValueError,
                           match="^passage 'nope' is not in the index$"):
            passage_features(index, "about subject00",
                             RankedList(["t00-a00", "nope"], [2.0, 1.0]))

    def test_unequal_lengths_named(self, deep_fixture):
        store, index, _ = deep_fixture
        with pytest.raises(ValueError, match="^2 pids but 1 scores$"):
            passage_features(index, "about subject00",
                             RankedList(["t00-a00", "t00-a01"], [2.0]))
        with pytest.raises(ValueError, match="^1 pids but 3 scores$"):
            passage_features(index, "about subject00", RankedList(
                ["t00-a00"], np.array([3.0, 2.0, 1.0])))

    def test_cache_dies_with_its_index(self, deep_fixture):
        """Featurizing keeps no reference to the index."""
        store, _, questions = deep_fixture
        index = build_index(store, Bm25Params())
        passage_features(index, questions[0].question,
                         RankedList(index.pids[:1], [1.0]))
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
        """The length column, constant at 40, keeps 40 as its mean and gets
        std 1 and weight 0; the bias column, constant too, keeps mean 0 and
        std 1 and is the one constant column with a weight."""
        store, index, questions = fixed_length
        scorer = train_passage_reranker(index, store, questions)
        rows = np.concatenate([passage_features(index, qa.question,
                                                index.search(qa.question, 10))
                               for qa in questions])
        constant = np.flatnonzero((rows == rows[0]).all(axis=0)).tolist()
        assert constant == [LENGTH, BIAS]
        assert rows[0, LENGTH] == 40.0
        assert [scorer.feature_mean[LENGTH], scorer.feature_std[LENGTH],
                scorer.weights[LENGTH]] == [40.0, 1.0, 0.0]
        assert [scorer.feature_mean[BIAS], scorer.feature_std[BIAS]] == \
            [0.0, 1.0]
        assert scorer.weights[BIAS] != 0.0
        for qa in questions:
            rl = index.search(qa.question, 10)
            out = rerank_passages(scorer, index, qa.question, rl, 10)
            assert all(0.0 <= p <= 1.0 for _, p in out.entries)

    def test_constant_overlap_keeps_its_value(self, planted_index,
                                              planted_split, pr_scorer):
        """On planted every training row's overlap is 2/3, whose computed
        mean over the rows is not 2/3: the column keeps 2/3 as its mean
        and gets std 1 and weight 0, like the length column."""
        qa_train, _ = planted_split
        rows = np.concatenate([
            passage_features(planted_index, qa.question,
                             planted_index.search(qa.question, 10))
            for qa in qa_train])
        constant = np.flatnonzero((rows == rows[0]).all(axis=0)).tolist()
        assert constant == [1, LENGTH, BIAS]
        assert rows[0, 1] == 2 / 3 and rows.mean(axis=0)[1] != 2 / 3
        assert pr_scorer.feature_mean[constant].tolist() == [2 / 3, 12.0, 0.0]
        assert pr_scorer.feature_std[constant].tolist() == [1.0] * 3
        assert pr_scorer.weights[[1, LENGTH]].tolist() == [0.0, 0.0]

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
        rl = index.search(qa.question, 40)
        out = rerank_passages(pr_scorer, index, qa.question, rl, depth=1)
        assert out.pids() == rl.pids()

    def test_bm25_only_scorer_preserves_order(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = PassageScorer(np.array([1.0, 0, 0, 0, 0]),
                               np.zeros(5), np.ones(5))
        qa = questions[0]
        rl = index.search(qa.question, 40)
        out = rerank_passages(scorer, index, qa.question, rl,
                              depth=len(rl))
        assert out.pids() == rl.pids()

    @pytest.mark.parametrize("depth", [1, 5, 20, 39])
    def test_scores_never_increase(self, deep_fixture, pr_scorer, depth):
        store, index, questions = deep_fixture
        for qa in questions:
            rl = index.search(qa.question, 40)
            out = rerank_passages(pr_scorer, index, qa.question, rl,
                                  depth)
            out.validate()
            assert out.entries[depth:] == rl.entries[depth:]

    def test_full_depth_scores_are_probabilities(self, deep_fixture,
                                                 pr_scorer):
        store, index, questions = deep_fixture
        qa = questions[3]
        rl = index.search(qa.question, 40)
        out = rerank_passages(pr_scorer, index, qa.question, rl, 40)
        by_pid = dict(rl.entries)
        assert [s for _, s in out.entries] == pr_scorer.probability(
            passage_features(index, qa.question, RankedList(
                out.pids(), [by_pid[pid] for pid in out.pids()]))).tolist()

    @pytest.mark.parametrize("depth", [1, 7, 40, 100])
    def test_equals_reranking_with_reference_features(
            self, planted, planted_store, planted_index, pr_scorer, depth):
        for qa in planted.questions[:40]:
            rl = planted_index.search(qa.question, 60)
            out = rerank_passages(pr_scorer, planted_index, qa.question, rl,
                                  depth)
            assert out.entries == reference_rerank(
                pr_scorer, planted_index, planted_store, qa.question, rl,
                depth)

    def test_permutation_of_prefix_only(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions,
                                        PRTrainConfig(train_depth=40))
        qa = questions[1]
        rl = index.search(qa.question, 40)
        out = rerank_passages(scorer, index, qa.question, rl, depth=20)
        assert sorted(out.pids()[:20]) == sorted(rl.pids()[:20])
        assert out.pids()[20:] == rl.pids()[20:]

    def test_buried_answer_recovered(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions,
                                        PRTrainConfig(train_depth=40))
        lifted = 0
        for qa in questions:
            rl = index.search(qa.question, 100)
            assert rl.pids().index(f"{qa.qid}-zans") == 39  # buried by ties
            out = rerank_passages(scorer, index, qa.question, rl,
                                  depth=100)
            if f"{qa.qid}-zans" in out.pids()[:5]:
                lifted += 1
        assert lifted / len(questions) >= 0.8

    def test_idempotent(self, deep_fixture):
        store, index, questions = deep_fixture
        scorer = train_passage_reranker(index, store, questions)
        qa = questions[2]
        rl = index.search(qa.question, 40)
        once = rerank_passages(scorer, index, qa.question, rl, depth=40)
        twice = rerank_passages(scorer, index, qa.question, once, depth=40)
        assert twice.pids() == once.pids()

    def test_depth_clamped(self, deep_fixture, pr_scorer):
        store, index, questions = deep_fixture
        qa = questions[0]
        rl = index.search(qa.question, 10)
        out = rerank_passages(pr_scorer, index, qa.question, rl, depth=999)
        assert len(out) == len(rl)


class TestSerialization:
    def test_round_trip(self, pr_scorer, tmp_path):
        path = tmp_path / "pr.json"
        pr_scorer.save(path)
        loaded = PassageScorer.load(path)
        f = np.linspace(0, 1, 10).reshape(2, 5)
        np.testing.assert_array_equal(loaded.probability(f),
                                      pr_scorer.probability(f))
