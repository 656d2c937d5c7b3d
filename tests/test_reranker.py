import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandrank import reranker
from expandrank.corpus import Passage, PassageStore
from expandrank.expansion import (CandidateSet, ConstructionConfig,
                                  ExpansionCandidate, label_candidates)
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
        assert f[9] == 0.0

    def test_hand_computed_fixture(self, planted, planted_index, planted_store,
                                   featurizer):
        qa = planted.questions[0]
        useful = planted.candidates[qa.qid].candidates[
            planted.useful_index[qa.qid]
        ]
        rl = planted_index.search(f"{qa.question} {useful.text}", k=2)
        f = rd_row(featurizer, qa.question, useful.text, rl)
        assert rl.entries[0][0].endswith("-z-ans")
        assert f[8] == pytest.approx(rl.entries[0][1])
        assert f[9] == 1.0              # the key term is in the answer passage
        assert f[10] == pytest.approx(0.5)  # both topic terms, not "what is"
        assert f[11] == 12.0            # fixed passage length
        assert f[12] == 1.0             # clear top-1 margin

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
        np.testing.assert_array_equal(rd_row(featurizer, qa.question, e, rl)[:8],
                                      ri_row(featurizer, qa.question, e))


# Stopwords, digits, capitals, NFKC-folded words (a ligature, fullwidth
# letters, a roman numeral, a superscript, a circled digit), punctuation-joined
# tokens and a token longer than any trigram slice table.
_LONG = "Pneumonoultramicroscopicsilicovolcanoconiosis"
_WORDS = ("the", "of", "is", "Running", "runs", "ponies", "sky", "2018",
          "\ufb01ve", "x1", "Deadpool-2", "May", "\uff34okyo", "\u216b",
          "x\u00b2", "\u2460", _LONG)
_ALPHABET = "abeinrst19AE"
_token = st.one_of(st.sampled_from(_WORDS),
                   st.text(alphabet=_ALPHABET, min_size=1, max_size=3),
                   st.text(alphabet=_ALPHABET, min_size=1, max_size=40),
                   st.text(alphabet=_ALPHABET, min_size=30, max_size=40))
# 1-6 tokens; sometimes the first again at the end
_text = st.tuples(st.lists(_token, min_size=1, max_size=6), st.booleans()).map(
    lambda drawn: " ".join(drawn[0] + drawn[0][:1] * drawn[1]))
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
    @example(question=f"\uff34okyo {_LONG} ab",  # long, short, repeated
             cands=[(f"{_LONG}s ab ab x\u00b2 \u2460", [("p2", 1.0)]),
                    ("e e e 99 \u216b", [("p0", 0.5), ("p2", 0.5)])])
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference(self, small_featurizer, question, cands):
        # one more candidate repeats the question, so that its trigrams
        # meet the question's
        cands = cands + [(f"{question} {cands[0][0]}", cands[0][1])]
        texts = [text for text, _ in cands]
        tops = [top for _, top in cands]
        ri = small_featurizer.features("RI", question, texts)
        rd = small_featurizer.features("RD", question, texts, tops)
        assert ri.shape == (len(texts), 8) and rd.shape == (len(texts), 13)
        for i, (text, top) in enumerate(cands):
            assert ri[i].tobytes() == reference_ri(
                small_featurizer, question, text).tobytes()
            rl = RankedList([pid for pid, _ in top], [s for _, s in top])
            assert rd[i].tobytes() == reference_rd(
                small_featurizer, question, text, rl).tobytes()

    def test_one_normalize_per_text(self, small_featurizer, monkeypatch):
        """One call normalizes the question once, each text once and the
        passage of each distinct RD top-1 pid once."""
        calls = []
        original = reranker.normalize

        def counting(raw):
            calls.append(raw)
            return original(raw)

        monkeypatch.setattr(reranker, "normalize", counting)
        question = "ponies of may"
        texts = ["sky 2018", "x1 sky", "bin rest", "tab"]
        tops = [[("p1", 4.0), ("p0", 1.0)], [("p1", 2.0)],
                [("p3", 3.0), ("p1", 1.0)], []]
        small_featurizer.features("RI", question, texts)
        assert sorted(calls) == sorted([question, *texts])
        calls.clear()
        small_featurizer.features("RD", question, texts, tops)
        assert sorted(calls) == sorted([question, *texts, _PASSAGES[1],
                                        _PASSAGES[3]])

    def test_empty_candidate_list(self, small_featurizer):
        assert small_featurizer.features("RI", "q", []).shape == (0, 8)
        assert small_featurizer.features("RD", "q", [], []).shape == (0, 13)

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
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(8), np.zeros(8), np.ones(8))
        assert m.score(featurizer.features("RI", "q", ["e word"])).tolist() \
            == [0.0]

    def test_linearity(self):
        w = np.arange(8, dtype=float)
        m = ScorerModel("RI", RI_SCHEMA, w, np.zeros(8), np.ones(8))
        f = np.linspace(0.1, 0.9, 16).reshape(2, 8)
        np.testing.assert_allclose(m.score(2 * f), 2 * m.score(f))

    def test_schema_mismatch(self):
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(8), np.zeros(8), np.ones(8))
        with pytest.raises(ValueError):
            m.score(np.zeros((1, 13)))
        with pytest.raises(ValueError):
            m.score(np.zeros(8))  # a row, not a matrix

    def test_equal_rows_equal_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = ScorerModel("RD", RD_SCHEMA, rng.normal(size=13),
                            rng.normal(size=13), rng.uniform(0.5, 2, 13))
            row = rng.normal(size=13) * rng.choice([1e-3, 1.0, 1e3], 13)
            scores = m.score(np.tile(row, (37, 1)))
            assert np.all(scores == scores[0])

    def test_serialization_round_trip(self, ri_model, tmp_path):
        path = tmp_path / "m.json"
        ri_model.save(path)
        loaded = ScorerModel.load(path)
        f = np.linspace(0.0, 1.0, 16).reshape(2, 8)
        np.testing.assert_array_equal(loaded.score(f), ri_model.score(f))
        assert loaded.variant == "RI"


def _damage(doc, field, value):
    doc[field] = value


def _v1(doc):
    """A model file of the schema before the bias column was dropped."""
    doc.update(schema_id="ri-v1", weights=doc["weights"] + [0.0],
               feature_mean=doc["feature_mean"] + [0.0],
               feature_std=doc["feature_std"] + [1.0])


_OTHER_KIND = {"expansion_scorer": "passage_scorer",
               "passage_scorer": "expansion_scorer"}
# a model's variant -> one its schema does not take
_OTHER_VARIANT = {"RI": "RD", "RD": "RI", None: "RD"}

# case -> (field, damage, the message after "path: field: ", in which
# {kind}, {schema} and {dim} are the damaged model's and {other} is
# _OTHER_VARIANT's for it), for both model kinds
_MODEL_DAMAGES = {
    "kind": ("kind", lambda d: _damage(d, "kind", _OTHER_KIND[d["kind"]]),
             "not a {kind} model"),
    "format_version": ("format_version",
                       lambda d: _damage(d, "format_version", 2),
                       "2 is not 1"),
    "format_version_missing": ("format_version",
                               lambda d: d.pop("format_version"),
                               "None is not 1"),
    "schema_id": ("schema_id", lambda d: _damage(d, "schema_id", "ri-v9"),
                  "unknown schema 'ri-v9'; re-train the model"),
    # no variant scores the passage scorer's schema, so a passage-scorer
    # file that names one is rejected too
    "variant": ("variant",
                lambda d: _damage(d, "variant",
                                  _OTHER_VARIANT[d.get("variant")]),
                "{other!r} does not match schema {schema}"),
    "weights": ("weights", lambda d: _damage(d, "weights", d["weights"][:-1]),
                "expected {dim} values for {schema}"),
    "feature_mean": ("feature_mean",
                     lambda d: d["feature_mean"].__setitem__(2, float("nan")),
                     "values must be finite"),
    "feature_mean_string": ("feature_mean",
                            lambda d: _damage(d, "feature_mean", "0"),
                            "expected a list of numbers"),
    "feature_std": ("feature_std",
                    lambda d: d["feature_std"].__setitem__(0, 0.0),
                    "values must be positive"),
    # a bool is an int to Python, but not a number in a model file
    "feature_std_bool": ("feature_std",
                         lambda d: d["feature_std"].__setitem__(1, True),
                         "expected a list of numbers"),
    # an integer no float64 holds
    "oversized": ("weights", lambda d: d["weights"].__setitem__(0, 10 ** 400),
                  "values must be finite"),
}
_SCORER_DAMAGES = {
    **_MODEL_DAMAGES,
    "ri-v1": ("schema_id", _v1, "unknown schema 'ri-v1'; re-train the model"),
}


def _assert_damage_rejected(model, path, damages, case):
    """``model`` saved at ``path``, damaged by ``damages[case]``, fails to
    load with the case's message."""
    field, damage, why = damages[case]
    why = why.format(kind=model.kind, schema=model.schema_id,
                     dim=len(model.weights),
                     other=_OTHER_VARIANT[model.variant])
    model.save(path)
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{path}: {field}: {why}')}$"):
        type(model).load(path)


class TestModelFiles:
    @pytest.mark.parametrize("case", sorted(_SCORER_DAMAGES))
    def test_damaged_scorer_rejected(self, ri_model, rd_model, tmp_path,
                                     case):
        for model in (ri_model, rd_model):
            _assert_damage_rejected(model, tmp_path / "m.json",
                                    _SCORER_DAMAGES, case)

    @pytest.mark.parametrize("case", sorted(_MODEL_DAMAGES))
    def test_passage_scorer_rejects_every_shared_damage(self, pr_scorer,
                                                        tmp_path, case):
        _assert_damage_rejected(pr_scorer, tmp_path / "pr.json",
                                _MODEL_DAMAGES, case)

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

    @pytest.mark.parametrize("field, make", [
        ("variant", lambda: ScorerModel("RI", RD_SCHEMA, np.zeros(13),
                                        np.zeros(13), np.ones(13))),
        ("variant", lambda: ScorerModel(None, RI_SCHEMA, np.zeros(8),
                                        np.zeros(8), np.ones(8))),
        ("feature_std", lambda: ScorerModel("RI", RI_SCHEMA, np.zeros(8),
                                            np.zeros(8), np.zeros(8))),
        ("feature_mean", lambda: ScorerModel("RI", RI_SCHEMA, np.zeros(8),
                                             np.full(8, np.nan), np.ones(8))),
        ("weights", lambda: ScorerModel("RI", RI_SCHEMA, np.zeros(4),
                                        np.zeros(8), np.ones(8))),
        ("weights", lambda: PassageScorer(np.zeros(3), np.zeros(5),
                                          np.ones(5))),
    ])
    def test_constructor_rejects_what_load_rejects(self, field, make):
        """A model that could be made but not loaded back is refused when
        it is made, naming the same field as ``load``."""
        with pytest.raises(ValueError, match=f"^{field}: "):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ScorerModel("RI", RI_SCHEMA, np.zeros(8), np.zeros(8),
                            np.ones(8)),
        lambda: ScorerModel("RD", RD_SCHEMA, np.zeros(13), np.zeros(13),
                            np.ones(13)),
        lambda: PassageScorer(np.zeros(5), np.zeros(5), np.ones(5)),
    ])
    def test_untrained_models_round_trip(self, make, tmp_path):
        model = make()
        path = tmp_path / "m.json"
        model.save(path)
        loaded = type(model).load(path)
        for field in ("weights", "feature_mean", "feature_std"):
            np.testing.assert_array_equal(getattr(loaded, field),
                                          getattr(model, field))

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{")
        with pytest.raises(ValueError, match=re.escape(f"{path}: json: ")):
            ScorerModel.load(path)

    @pytest.mark.parametrize("cls", [ScorerModel, PassageScorer])
    def test_json_nested_too_deep_rejected(self, tmp_path, cls):
        path = tmp_path / "m.json"
        path.write_text('{"weights": ' + "[" * 1000 + "]" * 1000 + "}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: json: ")):
            cls.load(path)


class TestRankLoss:
    def test_tied_scores_pay_margin(self):
        loss, _ = rank_loss([0.0, 0.0], [1, 3], alpha=0.5)
        assert loss == pytest.approx(1.0)

    def test_satisfied_margin(self):
        loss, grad = rank_loss([-2.0, 0.0], [1, 3], alpha=0.5)
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_lengths_must_align(self):
        with pytest.raises(ValueError,
                           match="^scores and ranks must align$"):
            rank_loss([0.0, 1.0], [1, 2, 3], alpha=0.5)

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

        start = loss(ScorerModel("RI", RI_SCHEMA, np.zeros(8), np.zeros(8),
                                 np.ones(8)))
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
    def test_constant_columns_standardize_to_zero(
            self, planted_train_set, featurizer, ri_model, rd_model, variant):
        """A column constant over the training rows keeps its value as its
        mean and gets std 1 and weight 0.  On planted these are the
        overlap (0), 1 - overlap (1), the digit and capital counts (0) and
        RD's top-1 passage length (12)."""
        model = {"RI": ri_model, "RD": rd_model}[variant]
        rows = np.concatenate([
            featurizer.features(variant, ex.question, texts_of(ex.candidates),
                                ex.top2) for ex in planted_train_set])
        constant = (rows == rows[0]).all(axis=0)
        assert np.flatnonzero(constant).tolist() == \
            {"RI": [1, 2, 5, 6], "RD": [1, 2, 5, 6, 11]}[variant]
        n = int(constant.sum())
        assert model.weights[constant].tolist() == [0.0] * n
        assert model.feature_mean[constant].tolist() == \
            rows[0, constant].tolist()
        assert model.feature_std[constant].tolist() == [1.0] * n
        assert np.all(model.weights[~constant] != 0.0)

    @pytest.mark.parametrize("variant", ["RI", "RD"])
    def test_no_questions_rejected(self, featurizer, variant):
        with pytest.raises(ValueError, match="^no training questions$"):
            train([], TrainConfig(), variant, featurizer)

    @pytest.mark.parametrize("call", [
        lambda f: f.features("RX", "q", ["e"]),
        lambda f: train([], TrainConfig(), "RX", f),
    ], ids=["features", "train"])
    def test_unknown_variant_rejected(self, featurizer, call):
        with pytest.raises(ValueError, match="^unknown variant 'RX'$"):
            call(featurizer)


def selection_accuracy(model, qa_list, planted, store, index, cfg, featurizer):
    correct = 0
    for qa in qa_list:
        cands = planted.candidates[qa.qid]
        labels, _ = label_candidates(index, store, qa, cands, cfg.k_retrieve)
        min_r = min(labels)
        chosen = cands.candidates[select_best(model, qa.question, cands,
                                              featurizer)[0]]
        if labels[cands.candidates.index(chosen)] == min_r:
            correct += 1
    return correct / len(qa_list)


class TestSelectBest:
    def test_singleton(self, ri_model, featurizer):
        only = ExpansionCandidate(text="sole expansion")
        cs = CandidateSet(qid="q", candidates=[only])
        assert cs.candidates[select_best(ri_model, "a question", cs,
                                         featurizer)[0]] is only

    def test_tie_goes_to_earliest(self, featurizer):
        m = ScorerModel("RI", RI_SCHEMA, np.zeros(8), np.zeros(8), np.ones(8))
        cs = CandidateSet(qid="q", candidates=[
            ExpansionCandidate(text="first"), ExpansionCandidate(text="second"),
        ])
        assert select_best(m, "q", cs, featurizer)[0] == 0

    @pytest.mark.parametrize("variant", ["RI", "RD"])
    def test_equal_rows_go_to_index_0(self, featurizer, variant):
        schema = {"RI": RI_SCHEMA, "RD": RD_SCHEMA}[variant]
        dim = {"RI": 8, "RD": 13}[variant]
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
            tops = [rl.entries for rl in featurizer.index.search_set(
                question, texts_of(cs), 2).lists]
            assert all(len(t) == 2 for t in tops)
        rows = featurizer.features(variant, question,
                                   [c.text for c in cs.candidates], tops)
        assert (rows == rows[0]).all()
        assert select_best(m, question, cs, featurizer)[0] == 0

    def test_rd_selects_on_exact_k2_lists(self, planted, planted_split,
                                          rd_model, featurizer, monkeypatch):
        """RD selection featurizes each candidate's exact k=2 list of
        "question + candidate" and picks the first argmin of the model's
        scores over those rows: on the planted test questions, and on a
        corpus where one candidate's expanded query retrieves one passage
        only."""
        store = PassageStore([
            Passage(id="p0", title="", text="river bank loans"),
            Passage(id="p1", title="", text="river fish swim"),
            Passage(id="p2", title="", text="mountain snow peak"),
            Passage(id="p3", title="", text="desert sand dune"),
        ])
        small = Featurizer(build_index(store, Bm25Params()), store)
        # "snow" and "peak" are on p2's list alone; the others add passages
        one_hit = CandidateSet(qid="s", candidates=[
            ExpansionCandidate(text=t) for t in ("river fish", "peak",
                                                 "sand")])
        _, qa_test = planted_split
        cases = [(featurizer, qa.question, planted.candidates[qa.qid])
                 for qa in qa_test]
        cases.append((small, "what is the snow", one_hit))
        seen = []
        features = Featurizer.features

        def spy(self, variant, question, texts, tops=None):
            seen.append(tops)
            return features(self, variant, question, texts, tops)

        monkeypatch.setattr(Featurizer, "features", spy)
        sizes = set()
        for f, question, cands in cases:
            seen.clear()
            pick = cands.candidates[select_best(rd_model, question, cands,
                                                f)[0]]
            (tops,) = seen
            texts = texts_of(cands)
            assert tops == [reference_expanded_search(f.index, question, t, 2)
                            for t in texts]
            sizes.update(map(len, tops))
            scores = rd_model.score(features(f, "RD", question, texts, tops))
            assert pick is cands.candidates[
                int(np.flatnonzero(scores == scores.min())[0])]
        assert sizes == {1, 2}

    def test_affine_score_invariance(self, planted, ri_model, featurizer):
        qa = planted.questions[5]
        cs = planted.candidates[qa.qid]
        base = select_best(ri_model, qa.question, cs, featurizer)[0]
        shifted = ScorerModel(
            ri_model.variant, ri_model.schema_id,
            ri_model.weights * 3.0,  # positive scaling preserves the argmin
            ri_model.feature_mean, ri_model.feature_std,
        )
        assert select_best(shifted, qa.question, cs,
                           featurizer)[0] == base

    def test_empty_set_rejected(self, ri_model, featurizer):
        with pytest.raises(ValueError):
            select_best(ri_model, "q", CandidateSet(qid="q", candidates=[]),
                        featurizer)
