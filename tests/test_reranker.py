import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandrank.corpus import Passage, PassageStore
from expandrank.expansion import (CandidateSet, ConstructionConfig,
                                  ExpansionCandidate, label_candidates,
                                  search_candidates)
from expandrank.index import Bm25Params, Index, RankedList, build_index
from expandrank.passage_reranker import PassageScorer
from expandrank.reranker import (RD_SCHEMA, RI_SCHEMA, Featurizer, ScorerModel,
                                 TrainConfig, rank_loss, select_best, train)
from oracles import reference_expanded_search, reference_rd, reference_ri


def ri_row(featurizer, question, expansion):
    return featurizer.features("RI", question, [expansion])[0]


def rd_row(featurizer, question, expansion, rl):
    return featurizer.features("RD", question, [expansion], [rl.entries])[0]


def texts_of(cs):
    return [c.text for c in cs.candidates]


class TestFeaturizeRI:
    def test_identity_expansion(self, featurizer):
        f = ri_row(featurizer, "what is topikabbb", "what is topikabbb")
        assert f[1] == 1.0  # full overlap
        assert f[2] == 0.0  # nothing novel

    def test_deterministic(self, featurizer):
        q, texts = "where do hops grow", ["oregon idaho washington", "hops"]
        assert np.array_equal(featurizer.features("RI", q, texts),
                              featurizer.features("RI", q, texts))

    def test_counts(self, featurizer):
        f = ri_row(featurizer, "a question", "May 18 2018 Washington")
        assert f[0] == 4.0   # token count
        assert f[5] == 2.0   # numeric tokens
        assert f[6] == 2.0   # capitalized raw words
        assert f[8] == 1.0   # bias

    def test_planted_trap_matches_useful(self, planted, featurizer):
        # the fixture is engineered so trap and useful candidates are
        # indistinguishable without looking at retrieval results
        qid = sorted(planted.trapped_qids)[0]
        qa = next(q for q in planted.questions if q.qid == qid)
        cands = planted.candidates[qid].candidates
        trap = next(c for c in cands if c.text.startswith("trapa"))
        useful = cands[planted.useful_index[qid]]
        trap_row, useful_row = featurizer.features(
            "RI", qa.question, [trap.text, useful.text])
        np.testing.assert_array_equal(trap_row, useful_row)


class TestFeaturizeRD:
    def test_novel_overlap_zero_when_absent(self, planted, planted_index,
                                            featurizer):
        qa = planted.questions[0]
        rl = planted_index.search(qa.question + " zn0x0a", k=2)
        f = rd_row(featurizer, qa.question, "keyaa" + "bbb", rl)
        assert f[10] == 0.0

    def test_hand_computed_fixture(self, planted, planted_index, planted_store,
                                   featurizer):
        qa = planted.questions[0]
        useful = planted.candidates[qa.qid].candidates[
            planted.useful_index[qa.qid]
        ]
        rl = planted_index.search(f"{qa.question} {useful.text}", k=2)
        f = rd_row(featurizer, qa.question, useful.text, rl)
        assert rl.entries[0][0].endswith("-z-ans")
        assert f[9] == pytest.approx(rl.entries[0][1])
        assert f[10] == 1.0             # the key term is in the answer passage
        assert f[11] == pytest.approx(0.5)  # both topic terms, not "what is"
        assert f[12] == 12.0            # fixed passage length
        assert f[13] == 1.0             # clear top-1 margin

    def test_rd_needs_retrieval(self, featurizer):
        with pytest.raises(ValueError, match="retrieval"):
            featurizer.features("RD", "q", ["e"])
        with pytest.raises(ValueError, match="retrieval"):
            featurizer.features("RD", "q", ["e", "f"], [[("p", 1.0)]])

    def test_stored_pairs_match_search(self, planted_train_set, featurizer):
        for ex in planted_train_set[:20]:
            searched = [reference_expanded_search(
                featurizer.index, ex.question, c.text, 2)
                for c in ex.candidates.candidates]
            np.testing.assert_array_equal(
                featurizer.features("RD", ex.question, texts_of(ex.candidates),
                                    ex.top2),
                featurizer.features("RD", ex.question, texts_of(ex.candidates),
                                    searched))

    def test_ri_block_shared(self, planted, featurizer):
        qa = planted.questions[0]
        e = "keyaabbb"
        rl = featurizer.index.search(f"{qa.question} {e}", k=2)
        np.testing.assert_array_equal(rd_row(featurizer, qa.question, e, rl)[:9],
                                      ri_row(featurizer, qa.question, e))


# Stopwords, digits, capitals, an NFKC ligature and punctuation-joined tokens.
_WORDS = ("the", "of", "is", "Running", "runs", "ponies", "sky", "2018",
          "\ufb01ve", "x1", "Deadpool-2", "May")
_text = st.lists(
    st.one_of(st.sampled_from(_WORDS),
              st.text(alphabet="abeinrst19", min_size=1, max_size=6)),
    min_size=1, max_size=6,
).map(" ".join)
_PASSAGES = ["the sky runs x1", "ponies of May 2018", "\ufb01ve Deadpool-2 sky",
             "bin rest tab"]
_pair = st.tuples(st.sampled_from([f"p{i}" for i in range(len(_PASSAGES))]),
                  st.floats(-5.0, 50.0, allow_nan=False))


class TestFeatureMatrix:
    """Each row of ``Featurizer.features`` is bitwise the per-candidate
    reference row."""

    @pytest.fixture(scope="class")
    def small_featurizer(self):
        store = PassageStore([Passage(id=f"p{i}", title="", text=text)
                              for i, text in enumerate(_PASSAGES)])
        return Featurizer(build_index(store, Bm25Params()), store)

    @given(question=st.one_of(st.just("?! --"), _text),
           cands=st.lists(st.tuples(_text, st.lists(_pair, max_size=2)),
                          min_size=1, max_size=6))
    @example(question="the sky runs", cands=[("sky", [])])  # empty top-2
    @example(question="ponies", cands=[("x1 sky", [("p1", 3.0)])])  # one pair
    @example(question="the sky runs",  # no novel tokens
             cands=[("sky the", [("p0", 2.0), ("p1", 2.0)]),
                    ("RUNS", [("p0", 1.0), ("p2", 0.5)])])
    @example(question="ponies of may",  # one top pid shared by candidates
             cands=[("2018", [("p1", 4.0), ("p0", 1.0)]),
                    ("sky", [("p1", 2.5)]),
                    ("\ufb01ve rest", [("p1", 4.0), ("p3", 4.0)])])
    @example(question="?! --",  # a question with no tokens
             cands=[("sky", [("p0", 1.0), ("p2", 0.0)]), ("?", [])])
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference(self, small_featurizer, question, cands):
        texts = [text for text, _ in cands]
        tops = [top for _, top in cands]
        ri = small_featurizer.features("RI", question, texts)
        rd = small_featurizer.features("RD", question, texts, tops)
        assert ri.shape == (len(texts), 9) and rd.shape == (len(texts), 14)
        for i, (text, top) in enumerate(cands):
            assert ri[i].tobytes() == reference_ri(
                small_featurizer, question, text).tobytes()
            rl = RankedList([pid for pid, _ in top], [s for _, s in top])
            assert rd[i].tobytes() == reference_rd(
                small_featurizer, question, text, rl).tobytes()

    def test_empty_candidate_list(self, small_featurizer):
        assert small_featurizer.features("RI", "q", []).shape == (0, 9)
        assert small_featurizer.features("RD", "q", [], []).shape == (0, 14)

    @pytest.mark.parametrize("stemming", [True, False])
    @pytest.mark.parametrize("stopwords", [True, False])
    def test_idfs_tell_stopwords_from_unknown_terms(self, stemming,
                                                    stopwords):
        """A stopword and a term outside the vocabulary both have no term
        id; their idfs (0 and the unseen idf) still match the reference,
        which analyzes each token itself, under every analyzer setting."""
        store = PassageStore([Passage(id=f"p{i}", title="", text=text)
                              for i, text in enumerate(_PASSAGES)])
        featurizer = Featurizer(build_index(store, Bm25Params(
            stemming=stemming, stopwords=stopwords)), store)
        texts = ["the of is", "zzq the", "running runs RUN", "sky zzq 2018"]
        rows = featurizer.features("RI", "ponies", texts)
        for row, text in zip(rows, texts):
            assert row.tobytes() == reference_ri(featurizer, "ponies",
                                                 text).tobytes()


class TestScore:
    def test_zero_weights(self, featurizer):
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(9), np.zeros(9), np.ones(9))
        assert m.score(featurizer.features("RI", "q", ["e word"])).tolist() \
            == [0.0]

    def test_linearity(self):
        w = np.arange(9, dtype=float)
        m = ScorerModel("RI", RI_SCHEMA, w, np.zeros(9), np.ones(9))
        f = np.linspace(0.1, 0.9, 18).reshape(2, 9)
        np.testing.assert_allclose(m.score(2 * f), 2 * m.score(f))

    def test_schema_mismatch(self):
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(9), np.zeros(9), np.ones(9))
        with pytest.raises(ValueError):
            m.score(np.zeros((1, 14)))
        with pytest.raises(ValueError):
            m.score(np.zeros(9))  # a row, not a matrix

    def test_equal_rows_equal_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = ScorerModel("RD", RD_SCHEMA, rng.normal(size=14),
                            rng.normal(size=14), rng.uniform(0.5, 2, 14))
            row = rng.normal(size=14) * rng.choice([1e-3, 1.0, 1e3], 14)
            scores = m.score(np.tile(row, (37, 1)))
            assert np.all(scores == scores[0])

    def test_serialization_round_trip(self, ri_model, tmp_path):
        path = tmp_path / "m.json"
        ri_model.save(path)
        loaded = ScorerModel.load(path)
        f = np.linspace(0.0, 1.0, 18).reshape(2, 9)
        np.testing.assert_array_equal(loaded.score(f), ri_model.score(f))
        assert loaded.variant == "RI"


def _damage(doc, field, value):
    doc[field] = value


_SCORER_DAMAGES = {
    "kind": lambda d: _damage(d, "kind", "passage_scorer"),
    "format_version": lambda d: _damage(d, "format_version", 2),
    "schema_id": lambda d: _damage(d, "schema_id", "ri-v9"),
    "variant": lambda d: _damage(d, "variant", "RD"),
    "weights": lambda d: _damage(d, "weights", d["weights"][:5]),
    "feature_mean": lambda d: d["feature_mean"].__setitem__(2, float("nan")),
    "feature_std": lambda d: d["feature_std"].__setitem__(0, 0.0),
    "hidden": lambda d: _damage(d, "hidden", {"w": [[0.0] * 9], "b": [0.0]}),
}


class TestModelFiles:
    def test_old_file_with_null_hidden_loads(self, ri_model, tmp_path):
        path = tmp_path / "m.json"
        ri_model.save(path)
        doc = json.loads(path.read_text())
        assert "hidden" not in doc
        path.write_text(json.dumps(dict(doc, hidden=None)))
        np.testing.assert_array_equal(ScorerModel.load(path).weights,
                                      ri_model.weights)

    def test_old_file_with_generator_tag_loads(self, ri_model, tmp_path):
        path = tmp_path / "m.json"
        ri_model.save(path)
        doc = json.loads(path.read_text())
        assert "generator_tag" not in doc
        path.write_text(json.dumps(dict(doc, generator_tag="stub")))
        loaded = ScorerModel.load(path)
        np.testing.assert_array_equal(loaded.weights, ri_model.weights)
        assert not hasattr(loaded, "generator_tag")

    @pytest.mark.parametrize("field", sorted(_SCORER_DAMAGES))
    def test_damaged_scorer_rejected(self, ri_model, tmp_path, field):
        path = tmp_path / "m.json"
        ri_model.save(path)
        doc = json.loads(path.read_text())
        _SCORER_DAMAGES[field](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field}: ")):
            ScorerModel.load(path)

    @pytest.mark.parametrize("field, damage", [
        ("kind", lambda d: _damage(d, "kind", "expansion_scorer")),
        ("format_version", lambda d: d.pop("format_version")),
        ("schema_id", lambda d: _damage(d, "schema_id", RI_SCHEMA)),
        ("weights", lambda d: d["weights"].append(1.0)),
        ("feature_mean", lambda d: _damage(d, "feature_mean", "0")),
        ("feature_std", lambda d: d["feature_std"].__setitem__(1, -1.0)),
        ("feature_std", lambda d: d["feature_std"].__setitem__(1, True)),
    ])
    def test_damaged_passage_scorer_rejected(self, pr_scorer, tmp_path, field,
                                             damage):
        path = tmp_path / "pr.json"
        pr_scorer.save(path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field}: ")):
            PassageScorer.load(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{")
        with pytest.raises(ValueError, match=re.escape(f"{path}: json: ")):
            ScorerModel.load(path)


class TestRankLoss:
    def test_tied_scores_pay_margin(self):
        loss, _ = rank_loss([0.0, 0.0], [1, 3], alpha=0.5)
        assert loss == pytest.approx(1.0)

    def test_satisfied_margin(self):
        loss, grad = rank_loss([-2.0, 0.0], [1, 3], alpha=0.5)
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_equal_ranks_no_pairs(self):
        loss, grad = rank_loss([5.0, -1.0, 2.0], [7, 7, 7], alpha=0.5)
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 10)
            scores = rng.normal(size=n)
            ranks = rng.integers(1, 101, size=n).tolist()
            loss, _ = rank_loss(scores, ranks, 0.01)
            assert loss >= 0
            perm = rng.permutation(n)
            ploss, _ = rank_loss(scores[perm],
                                 [ranks[i] for i in perm], 0.01)
            assert ploss == pytest.approx(loss)

    def test_alpha_doubles_threshold(self):
        # inactive at alpha, active at 2*alpha: s_i - s_j = -(r_j - r_i)*1.5*alpha
        ranks = [1, 11]
        alpha = 0.1
        scores = [-(10 * 1.5 * alpha), 0.0]
        assert rank_loss(scores, ranks, alpha)[0] == 0.0
        loss2, _ = rank_loss(scores, ranks, 2 * alpha)
        assert loss2 == pytest.approx(10 * 2 * alpha - 10 * 1.5 * alpha)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 51))
            scores = rng.normal(scale=2.0, size=n)
            labels = rng.integers(1, 102, size=n).tolist()
            alpha = 0.01
            # skip draws landing near a hinge kink, where the subgradient
            # convention and the finite difference legitimately disagree
            near_kink = any(
                abs(scores[i] - scores[j] + (labels[j] - labels[i]) * alpha)
                < 1e-4
                for i in range(n) for j in range(n)
                if labels[i] < labels[j]
            )
            if near_kink:
                continue
            checked += 1
            _, grad = rank_loss(scores, labels, alpha)
            fd = np.zeros(n)
            h = 1e-5
            for i in range(n):
                up, down = scores.copy(), scores.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (rank_loss(up, labels, alpha)[0]
                         - rank_loss(down, labels, alpha)[0]) / (2 * h)
            denom = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(grad - fd) / denom < 1e-4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_loss_iff_margins_met(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        scores = rng.normal(size=n)
        labels = rng.integers(1, 20, size=n).tolist()
        alpha = 0.05
        loss, _ = rank_loss(scores, labels, alpha)
        met = all(
            scores[i] - scores[j] <= -(labels[j] - labels[i]) * alpha
            for i in range(n) for j in range(n)
            if labels[i] < labels[j]
        )
        assert (loss == 0.0) == met


class TestTrain:
    def test_ri_selection_accuracy(self, planted, planted_store, planted_index,
                                   planted_cfg, planted_split, ri_model,
                                   featurizer):
        _, qa_test = planted_split
        acc = selection_accuracy(ri_model, qa_test, planted, planted_store,
                                 planted_index, planted_cfg, featurizer)
        assert acc >= 0.8

    def test_rd_selection_beats_ri(self, planted, planted_store, planted_index,
                                   planted_cfg, planted_split, ri_model,
                                   rd_model, featurizer):
        _, qa_test = planted_split
        rd_acc = selection_accuracy(rd_model, qa_test, planted, planted_store,
                                    planted_index, planted_cfg, featurizer)
        ri_acc = selection_accuracy(ri_model, qa_test, planted, planted_store,
                                    planted_index, planted_cfg, featurizer)
        assert rd_acc >= 0.9
        assert rd_acc > ri_acc

    def test_loss_decreases(self, planted_train_set, featurizer):
        subset = planted_train_set[:40]

        def loss(model):
            return sum(
                rank_loss(model.score(featurizer.features(
                    "RI", ex.question, texts_of(ex.candidates))),
                    ex.labels, 0.01)[0]
                for ex in subset)

        start = loss(ScorerModel("RI", RI_SCHEMA, np.zeros(9), np.zeros(9),
                                 np.ones(9)))
        end = loss(train(subset, TrainConfig(), "RI", featurizer))
        assert end <= start + 1e-9

    def test_deterministic(self, planted_train_set, featurizer):
        a = train(planted_train_set[:20], TrainConfig(seed=5), "RI", featurizer)
        b = train(planted_train_set[:20], TrainConfig(seed=5), "RI", featurizer)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rd_training_issues_no_search(self, planted_train_set, featurizer,
                                          monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("RD training searched the index")

        monkeypatch.setattr(Index, "search", no_search)
        model = train(planted_train_set[:20], TrainConfig(), "RD", featurizer)
        assert model.variant == "RD"

    def test_single_candidate_rejected(self, planted_train_set, featurizer):
        import copy
        broken = copy.copy(planted_train_set[0])
        broken.candidates = CandidateSet(
            qid=broken.qid, candidates=broken.candidates.candidates[:1]
        )
        with pytest.raises(ValueError, match="fewer than 2"):
            train([broken], TrainConfig(), "RI", featurizer)

    @pytest.mark.parametrize("variant", ["RI", "RD"])
    def test_no_questions_rejected(self, featurizer, variant):
        with pytest.raises(ValueError, match="^no training questions$"):
            train([], TrainConfig(), variant, featurizer)


def selection_accuracy(model, qa_list, planted, store, index, cfg, featurizer):
    correct = 0
    for qa in qa_list:
        cands = planted.candidates[qa.qid]
        labels, _ = label_candidates(index, store, qa, cands, cfg.k_retrieve)
        min_r = min(labels)
        chosen = select_best(model, qa.question, cands, featurizer)
        if labels[cands.candidates.index(chosen)] == min_r:
            correct += 1
    return correct / len(qa_list)


class TestSelectBest:
    def test_singleton(self, ri_model, featurizer):
        only = ExpansionCandidate(text="sole expansion")
        cs = CandidateSet(qid="q", candidates=[only])
        assert select_best(ri_model, "a question", cs, featurizer) is only

    def test_tie_goes_to_earliest(self, featurizer):
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(9), np.zeros(9), np.ones(9))
        cs = CandidateSet(qid="q", candidates=[
            ExpansionCandidate(text="first"), ExpansionCandidate(text="second"),
        ])
        assert select_best(m, "q", cs, featurizer).text == "first"

    @pytest.mark.parametrize("variant", ["RI", "RD"])
    def test_equal_rows_go_to_index_0(self, featurizer, variant):
        schema = {"RI": RI_SCHEMA, "RD": RD_SCHEMA}[variant]
        dim = {"RI": 9, "RD": 14}[variant]
        rng = np.random.default_rng(1)
        m = ScorerModel(variant, schema, rng.normal(size=dim),
                        rng.normal(size=dim), rng.uniform(0.5, 2, dim))
        # 37 distinct texts whose rows are equal: each adds to a question
        # word one novel token of the same length that is not in the index,
        # so the RI features and the RD top-2 retrieval coincide.
        question = "what is topikabbb topikbbbb"
        cs = CandidateSet(qid="q", candidates=[
            ExpansionCandidate(text=f"topikabbb May zq{i:02d}x")
            for i in range(37)])
        assert len(cs.candidates) == 37
        tops = None
        if variant == "RD":
            tops = [rl.entries for rl in search_candidates(
                featurizer.index, question, cs, 2)]
            assert all(len(t) == 2 for t in tops)
        rows = featurizer.features(variant, question,
                                   [c.text for c in cs.candidates], tops)
        assert (rows == rows[0]).all()
        assert select_best(m, question, cs, featurizer) \
            is cs.candidates[0]

    def test_affine_score_invariance(self, planted, ri_model, featurizer):
        qa = planted.questions[5]
        cs = planted.candidates[qa.qid]
        base = select_best(ri_model, qa.question, cs, featurizer)
        shifted = ScorerModel(
            ri_model.variant, ri_model.schema_id,
            ri_model.weights * 3.0,  # positive scaling preserves the argmin
            ri_model.feature_mean, ri_model.feature_std,
        )
        assert select_best(shifted, qa.question, cs, featurizer) is base

    def test_empty_set_rejected(self, ri_model, featurizer):
        with pytest.raises(ValueError):
            select_best(ri_model, "q", CandidateSet(qid="q", candidates=[]),
                        featurizer)
