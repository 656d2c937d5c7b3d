from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expandrank import expansion
from expandrank.corpus import QAExample
from expandrank.evalbench import min_answer_rank, read_run, topk_accuracy, write_run
from expandrank.expansion import CandidateSet, ExpansionCandidate
from expandrank.index import RankedList
from expandrank.pipeline import (StrategySpec, fuse, prepare_candidates,
                                 run_dataset, run_strategy)
from oracles import reference_fuse


def rl(qid, pids, tag="t"):
    n = len(pids)
    return RankedList(qid=qid, entries=[(p, float(n - i)) for i, p in
                                        enumerate(pids)], tag=tag)


class TestFuse:
    def test_disjoint_round_robin(self):
        s = rl("q", ["s1", "s2", "s3"])
        a = rl("q", ["a1", "a2", "a3"])
        t = rl("q", ["t1", "t2", "t3"])
        out = fuse([s, a, t], k=9)
        assert out.pids() == ["s1", "a1", "t1", "s2", "a2", "t2", "s3", "a3", "t3"]

    def test_single_list_identity(self):
        out = fuse([rl("q", ["x", "y", "z"])], k=2)
        assert out.pids() == ["x", "y"]

    def test_duplicate_costs_the_turn(self):
        s = rl("q", ["s1", "s2"])
        a = rl("q", ["s1", "a2"])   # a's first entry duplicates s1
        t = rl("q", ["t1", "t2"])
        out = fuse([s, a, t], k=6)
        assert out.pids() == ["s1", "t1", "s2", "a2", "t2"]

    def test_distinct_ids_and_length_bound(self):
        lists = [rl("q", [f"{src}{i}" for i in range(5)]) for src in "sat"]
        out = fuse(lists, k=100)
        assert len(out.pids()) == len(set(out.pids())) == 15
        assert len(fuse(lists, k=7)) == 7

    def test_scores_descend(self):
        out = fuse([rl("q", ["a", "b"]), rl("q", ["c"])], k=10)
        out.validate()

    @given(st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=8,
                             unique=True), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=25))
    def test_matches_tuple_reference(self, pid_lists, k):
        lists = [rl("q", pids, tag=f"t{i}") for i, pids in enumerate(pid_lists)]
        assert fuse(lists, k) == reference_fuse(lists, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            fuse([], k=5)
        with pytest.raises(ValueError):
            fuse([rl("q", ["a"])], k=0)


class TestStrategySpec:
    def test_four_fields(self):
        assert [f.name for f in fields(StrategySpec)] == [
            "kind", "cap_n", "k_retrieve", "pr_depth"]

    @pytest.mark.parametrize("kwargs,message", [
        ({"kind": "nope"}, "unknown strategy"),
        ({"kind": "greedy", "cap_n": 0}, "cap_n must be >= 1"),
        ({"kind": "greedy", "cap_n": -3}, "cap_n must be >= 1"),
        ({"kind": "bm25", "k_retrieve": 0}, "k_retrieve must be >= 1"),
    ])
    def test_rejects_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            StrategySpec(**kwargs)

    def test_cap_above_the_pool_keeps_every_candidate(
            self, planted, planted_store, planted_index):
        qa = planted.questions[0]
        cands = planted.candidates[qa.qid]
        capped = run_strategy(StrategySpec(kind="oracle", cap_n=10_000),
                              planted_index, planted_store, qa, cands)
        plain = run_strategy(StrategySpec(kind="oracle"), planted_index,
                             planted_store, qa, cands)
        assert capped == plain

    def test_cap_does_not_normalize_the_set_again(
            self, planted, planted_store, planted_index, monkeypatch):
        calls = []
        norm_key = expansion._norm_key

        def counting(text):
            calls.append(text)
            return norm_key(text)

        monkeypatch.setattr(expansion, "_norm_key", counting)
        spec = StrategySpec(kind="greedy", cap_n=5)
        for qa in planted.questions[:20]:
            cands = planted.candidates[qa.qid]
            assert prepare_candidates(spec, cands).candidates == \
                cands.candidates[:5]
            run_strategy(spec, planted_index, planted_store, qa, cands)
        assert calls == []


class TestRunStrategy:
    def test_oracle_single_candidate_equals_greedy(self, planted, planted_store,
                                                   planted_index):
        qa = planted.questions[0]
        single = CandidateSet(qid=qa.qid, candidates=[
            planted.candidates[qa.qid].candidates[0]
        ])
        oracle = run_strategy(StrategySpec(kind="oracle"), planted_index,
                              planted_store, qa, single)
        greedy = run_strategy(StrategySpec(kind="greedy"), planted_index,
                              planted_store, qa, single)
        assert oracle.entries == greedy.entries

    def test_oracle_needs_answers(self, planted, planted_store, planted_index):
        qa = planted.questions[0]
        bare = QAExample(qid=qa.qid, question=qa.question, answers=())
        with pytest.raises(ValueError, match="answer"):
            run_strategy(StrategySpec(kind="oracle"), planted_index,
                         planted_store, bare, planted.candidates[qa.qid])

    def test_ear_needs_model(self, planted, planted_store, planted_index):
        qa = planted.questions[0]
        with pytest.raises(ValueError, match="model"):
            run_strategy(StrategySpec(kind="ear_rd"), planted_index,
                         planted_store, qa, planted.candidates[qa.qid])

    @pytest.mark.parametrize("kind,other", [("ear_ri", "rd_model"),
                                            ("ear_rd", "ri_model")])
    def test_ear_rejects_the_other_variant(self, request, planted,
                                           planted_store, planted_index,
                                           featurizer, kind, other):
        qa = planted.questions[0]
        with pytest.raises(ValueError, match="got an R[ID] model"):
            run_strategy(StrategySpec(kind=kind), planted_index,
                         planted_store, qa, planted.candidates[qa.qid],
                         request.getfixturevalue(other), featurizer)

    def test_mean_rank_ordering(self, planted, planted_store, planted_index,
                                planted_split, rd_model, featurizer):
        _, qa_test = planted_split
        def mean_rank(kind, model=None, feat=None):
            spec = StrategySpec(kind=kind)
            total = 0
            for qa in qa_test:
                out = run_strategy(spec, planted_index, planted_store, qa,
                                   planted.candidates[qa.qid], model, feat)
                r = min_answer_rank(out, qa.answers, planted_store)
                total += r if r is not None else 101
            return total / len(qa_test)

        oracle = mean_rank("oracle")
        ear_rd = mean_rank("ear_rd", rd_model, featurizer)
        greedy = mean_rank("greedy")
        assert oracle <= ear_rd <= greedy

    def test_pr_depth_keeps_prefix_set(self, planted, planted_store,
                                       planted_index, pr_scorer):
        qa = planted.questions[2]
        spec = StrategySpec(kind="bm25", pr_depth=5)
        plain = run_strategy(StrategySpec(kind="bm25"), planted_index,
                             planted_store, qa)
        reranked = run_strategy(spec, planted_index, planted_store, qa,
                                passage_scorer=pr_scorer)
        assert sorted(reranked.pids()[:5]) == sorted(plain.pids()[:5])
        assert reranked.pids()[5:] == plain.pids()[5:]


class TestOracleDominance:
    def test_per_question(self, planted, planted_store, planted_index,
                          planted_split, ri_model, rd_model, featurizer):
        _, qa_test = planted_split
        for qa in qa_test[:30]:
            cands = planted.candidates[qa.qid]
            oracle = run_strategy(StrategySpec(kind="oracle"), planted_index,
                                  planted_store, qa, cands)
            o_rank = min_answer_rank(oracle, qa.answers, planted_store) or 999
            for kind, model in (("greedy", None), ("ear_ri", ri_model),
                                ("ear_rd", rd_model)):
                out = run_strategy(StrategySpec(kind=kind), planted_index,
                                   planted_store, qa, cands, model,
                                   featurizer if model else None)
                rank = min_answer_rank(out, qa.answers, planted_store) or 999
                assert o_rank <= rank


class TestRunDataset:
    def test_empty(self, planted_store, planted_index):
        assert run_dataset(StrategySpec(kind="bm25"), planted_index,
                           planted_store, []) == {}

    def test_deterministic_run_files(self, planted, planted_store,
                                     planted_index, tmp_path):
        spec = StrategySpec(kind="oracle")
        questions = planted.questions[:30]
        paths = []
        for name in ("a.trec", "b.trec"):
            runs = run_dataset(spec, planted_index, planted_store, questions,
                               planted.candidates)
            path = tmp_path / name
            write_run(runs, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_writes_valid_trec(self, planted, planted_store, planted_index,
                               tmp_path):
        spec = StrategySpec(kind="greedy")
        runs = run_dataset(spec, planted_index, planted_store,
                           planted.questions, planted.candidates)
        path = tmp_path / "run.trec"
        write_run(runs, path)
        loaded = read_run(path)
        assert set(loaded) == set(runs)
        report = topk_accuracy(loaded, planted.questions, planted_store)
        assert report.accuracies[100] >= report.accuracies[5]

    def test_failures_logged_not_fatal(self, planted, planted_store,
                                       planted_index, caplog):
        spec = StrategySpec(kind="greedy")
        questions = planted.questions[:3]
        partial = {questions[0].qid: planted.candidates[questions[0].qid]}
        runs = run_dataset(spec, planted_index, planted_store, questions,
                           partial)
        assert set(runs) == {questions[0].qid}
        assert any("failed" in rec.message for rec in caplog.records)
