from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expandrank import expansion, kernels, text
from expandrank.corpus import Passage, PassageStore, QAExample
from expandrank.evalbench import min_answer_rank, read_run, topk_accuracy, write_run
from expandrank.expansion import (CandidateSet, ExpansionCandidate,
                                  label_candidates, truncate)
from expandrank.index import (Bm25Params, Index, RankedList, SetSearch,
                              build_index)
from expandrank.pipeline import (STRATEGIES, StrategySpec, choose, fuse,
                                 retrieve, run_dataset, run_strategy)
from expandrank.reranker import Featurizer
from expandrank.text import normalize
from oracles import (reference_expanded_search, reference_fuse,
                     reference_strategy_query)
from test_golden import _zipf


@pytest.fixture(scope="module")
def golden_zipf():
    """The golden Zipf workload's index, store, featurizer, questions and
    candidate sets: every set is scored on dense vectors."""
    passages, questions, sets = _zipf()
    store = PassageStore(passages)
    index = build_index(store, Bm25Params())
    return index, store, Featurizer(index, store), questions, sets


def rl(pids):
    n = len(pids)
    return RankedList(pids, [float(n - i) for i in range(n)])


class TestFuse:
    def test_disjoint_round_robin(self):
        s = rl(["s1", "s2", "s3"])
        a = rl(["a1", "a2", "a3"])
        t = rl(["t1", "t2", "t3"])
        out = fuse([s, a, t], k=9)
        assert out.pids() == ["s1", "a1", "t1", "s2", "a2", "t2", "s3", "a3", "t3"]

    def test_single_list_identity(self):
        out = fuse([rl(["x", "y", "z"])], k=2)
        assert out.pids() == ["x", "y"]

    def test_duplicate_costs_the_turn(self):
        s = rl(["s1", "s2"])
        a = rl(["s1", "a2"])   # a's first entry duplicates s1
        t = rl(["t1", "t2"])
        out = fuse([s, a, t], k=6)
        assert out.pids() == ["s1", "t1", "s2", "a2", "t2"]

    def test_distinct_ids_and_length_bound(self):
        lists = [rl([f"{src}{i}" for i in range(5)]) for src in "sat"]
        out = fuse(lists, k=100)
        assert len(out.pids()) == len(set(out.pids())) == 15
        assert len(fuse(lists, k=7)) == 7

    def test_scores_descend(self):
        out = fuse([rl(["a", "b"]), rl(["c"])], k=10)
        out.validate()

    @given(st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=8,
                             unique=True), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=25))
    def test_matches_tuple_reference(self, pid_lists, k):
        lists = [rl(pids) for pids in pid_lists]
        assert fuse(lists, k) == reference_fuse(lists, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            fuse([], k=5)
        with pytest.raises(ValueError):
            fuse([rl(["a"])], k=0)


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
        spec = StrategySpec(kind="concat", cap_n=5)
        for qa in planted.questions[:20]:
            cands = planted.candidates[qa.qid]
            choice = choose(spec, planted_index, planted_store, qa, cands,
                            None, None)
            assert (choice.question, choice.expansion) == (
                qa.question, " ".join(c.text for c in cands.candidates[:5]))
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

    def test_oracle_tie_goes_to_the_earliest_candidate(self):
        # both candidates lift the answer passage to rank 1, and their lists
        # differ below it, so the run shows which candidate won the tie
        store = PassageStore([Passage("p1", "", "blue gold"),
                              Passage("p2", "", "blue red"),
                              Passage("p3", "", "blue green")])
        index = build_index(store, Bm25Params())
        qa = QAExample(qid="q", question="blue", answers=("gold",))
        cs = CandidateSet(qid="q", candidates=[
            ExpansionCandidate("gold red"), ExpansionCandidate("gold green")])
        labels, lists = label_candidates(index, store, qa, cs, 3)
        assert labels == [1, 1]
        assert lists[0].pids() == ["p1", "p2", "p3"]
        assert lists[1].pids() == ["p1", "p3", "p2"]
        run = run_strategy(StrategySpec(kind="oracle", k_retrieve=3), index,
                           store, qa, cs)
        assert run == lists[0].head(3)

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


def _count_stems(monkeypatch) -> Counter:
    """Count each word ``porter_stem`` is called on from now on."""
    stems = Counter()
    stem = text.porter_stem

    def counting(word):
        stems[word] += 1
        return stem(word)

    monkeypatch.setattr(text, "porter_stem", counting)
    return stems


class TestChoose:
    def test_oracle_searches_each_candidate_once(self, planted20,
                                                 monkeypatch):
        """The oracle's run is the chosen candidate's labeling list, so n
        candidates cost n expansions scored, not n + 1: the expansion rows
        of ``search_set`` plus any ``search`` call."""
        fx, store, index = planted20
        scored = []
        search_set, search = Index.search_set, Index.search

        def expanded(self, question, expansions, *args, **kwargs):
            scored.extend(expansions)
            return search_set(self, question, expansions, *args, **kwargs)

        def single(self, *args, **kwargs):
            scored.append(args)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(Index, "search_set", expanded)
        monkeypatch.setattr(Index, "search", single)
        spec = StrategySpec(kind="oracle")
        for qa in fx.questions:
            scored.clear()
            run_strategy(spec, index, store, qa, fx.candidates[qa.qid])
            assert len(scored) == len(fx.candidates[qa.qid])

    def test_ear_rd_searches_each_candidate_once(self, planted,
                                                 planted_store, planted_index,
                                                 featurizer, planted20,
                                                 rd_model, monkeypatch):
        """``ear_rd``'s run is cut from the scores of its top-2 set search,
        so n candidates cost n expansions searched, not n + 1: the question
        and each candidate are analyzed into term ids once, by that one
        search, and no ``search`` runs.  A packed set (every set of
        ``planted``) scores no dense vector after it; a dense one (every
        set of the 20-question fixture) scores the chosen candidate's
        vector again, and no other."""
        analyzed, dense = [], []
        term_ids, score_all = Index.term_ids, Index.score_all

        def analyzing(self, text):
            analyzed.append(text)
            return term_ids(self, text)

        def scoring(self, ids):
            dense.append(ids)
            return score_all(self, ids)

        def no_search(*args, **kwargs):
            raise AssertionError("ear_rd searched its choice again")

        monkeypatch.setattr(Index, "term_ids", analyzing)
        monkeypatch.setattr(Index, "score_all", scoring)
        monkeypatch.setattr(Index, "search", no_search)
        spec = StrategySpec(kind="ear_rd")
        fx, store20, index20 = planted20
        for questions, set_of, store, index, f, packs in (
                (planted.questions[:40], planted.candidates, planted_store,
                 planted_index, featurizer, True),
                (fx.questions, fx.candidates, store20, index20,
                 Featurizer(index20, store20), False)):
            for qa in questions:
                texts = [c.text for c in set_of[qa.qid].candidates]
                analyzed.clear()
                dense.clear()
                run_strategy(spec, index, store, qa, set_of[qa.qid],
                             rd_model, f)
                assert analyzed == [qa.question, *texts]
                scored = dense[:]
                chosen = choose(spec, index, store, qa, set_of[qa.qid],
                                rd_model, f).expansion
                assert scored == ([] if packs else [
                    term_ids(index, t) for t in (qa.question, *texts,
                                                 chosen)])

    @pytest.mark.parametrize("reranked", [False, True])
    @pytest.mark.parametrize("kind", sorted(STRATEGIES))
    def test_one_search_call_per_question(self, request, planted,
                                          planted_store, planted_index,
                                          featurizer, planted20, pr_scorer,
                                          monkeypatch, kind, reranked):
        """Every strategy issues one search call per question, with or
        without passage reranking: ``bm25`` one ``search``, every other
        strategy one ``search_set``, from whose scores ``oracle`` and
        ``ear_rd`` also cut their final list.  No posting is gathered
        outside those calls and ``SetSearch.top``, so a second search path
        fails here; on packed sets (``planted``) and dense ones (the
        20-question fixture)."""
        calls, depth = [], [0]

        def entry(name, fn):
            def wrapped(*args, **kwargs):
                if name:
                    calls.append(name)
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        gather = kernels.gather_postings

        def gathering(*args, **kwargs):
            assert depth[0], "postings gathered outside a search call"
            return gather(*args, **kwargs)

        monkeypatch.setattr(Index, "search", entry("search", Index.search))
        monkeypatch.setattr(Index, "search_set",
                            entry("search_set", Index.search_set))
        monkeypatch.setattr(SetSearch, "top", entry(None, SetSearch.top))
        monkeypatch.setattr(kernels, "gather_postings", gathering)
        scorer = STRATEGIES[kind].scorer
        model = (request.getfixturevalue(f"{scorer.lower()}_model")
                 if scorer else None)
        spec = StrategySpec(kind=kind)
        fx, store20, index20 = planted20
        for questions, set_of, store, index, f in (
                (planted.questions[:20], planted.candidates, planted_store,
                 planted_index, featurizer),
                (fx.questions, fx.candidates, store20, index20,
                 Featurizer(index20, store20))):
            for qa in questions:
                calls.clear()
                run_strategy(spec, index, store, qa, set_of[qa.qid], model, f,
                             pr_scorer if reranked else None)
                assert calls == ["search" if kind == "bm25"
                                 else "search_set"]

    def test_ear_rd_stems_each_surface_token_once(self, planted20, rd_model,
                                                  monkeypatch):
        """RD's k=2 candidate searches, its features' idfs and the final
        search of the chosen query read one term map, so no word is stemmed
        twice, and a question asked again stems nothing."""
        fx, store, _ = planted20
        index = build_index(store, Bm25Params())  # a cold map
        featurizer = Featurizer(index, store)
        stems = _count_stems(monkeypatch)
        spec = StrategySpec(kind="ear_rd")
        for qa in fx.questions:
            cs = fx.candidates[qa.qid]
            surface = set(normalize(qa.question)).union(
                *(normalize(c.text) for c in cs.candidates))
            stems.clear()
            run_strategy(spec, index, store, qa, cs, rd_model, featurizer)
            assert set(stems) <= surface
            assert max(stems.values(), default=1) == 1
            stems.clear()
            run_strategy(spec, index, store, qa, cs, rd_model, featurizer)
            assert not stems

    def test_labels_then_oracle_stem_no_token_twice(self, planted20,
                                                    monkeypatch):
        fx, store, _ = planted20
        index = build_index(store, Bm25Params())  # a cold map
        stems = _count_stems(monkeypatch)
        for qa in fx.questions:
            cs = fx.candidates[qa.qid]
            label_candidates(index, store, qa, cs, 100)
            run_strategy(StrategySpec(kind="oracle"), index, store, qa, cs)
        assert stems and max(stems.values()) == 1

    @pytest.mark.parametrize("k", [1, 2, 100])
    @pytest.mark.parametrize("cap_n", [None, 1, 3])
    @pytest.mark.parametrize("kind", sorted(STRATEGIES))
    def test_equals_search_of_reference_query(
            self, request, planted, planted_store, planted_index,
            planted_split, featurizer, kind, cap_n, k):
        scorer = STRATEGIES[kind].scorer
        model = (request.getfixturevalue(f"{scorer.lower()}_model")
                 if scorer else None)
        spec = StrategySpec(kind=kind, cap_n=cap_n, k_retrieve=k)
        _, qa_test = planted_split
        for qa in qa_test[:15]:
            cands = planted.candidates[qa.qid]
            capped = cands if cap_n is None else truncate(cands, cap_n)
            question, expansion = reference_strategy_query(
                spec, planted_index, planted_store, qa, capped, model,
                featurizer)
            got = run_strategy(spec, planted_index, planted_store, qa, cands,
                               model, featurizer)
            assert got.entries == reference_expanded_search(
                planted_index, question, expansion or "", k)
            choice = choose(spec, planted_index, planted_store, qa, cands,
                            model, featurizer)
            assert (choice.question, choice.expansion) == (question,
                                                           expansion)
            assert (choice.ranked is not None) == (kind in ("oracle",
                                                            "ear_rd"))


    @pytest.mark.parametrize("k", [1, 2, 3, 100])
    @pytest.mark.parametrize("cap_n", [None, 1, 3])
    def test_ear_rd_list_is_the_reference_list(
            self, planted, planted_store, planted_index, featurizer,
            golden_zipf, rd_model, monkeypatch, cap_n, k):
        """``ear_rd``'s list, cut from the scores its top-2 set search
        kept, is the chosen query's own search and the parts reference,
        pids and score bits, and shares no memory with those scores: on
        packed sets (planted), dense ones (the golden Zipf workload, and
        every set capped at one candidate) and candidates that repeat each
        question term, so that it is counted 2 and 3 times in their
        part."""
        echo = {}
        for i, qa in enumerate(planted.questions[:40]):
            q = qa.question
            repeats = [f"{q} {q}", f"{q} {q} {q}"][::1 if i % 2 else -1]
            echo[qa.qid] = CandidateSet(qa.qid, [
                *map(ExpansionCandidate, repeats),
                *planted.candidates[qa.qid].candidates[:2]])
        cases = [(planted_index, planted_store, featurizer,
                  planted.questions[:40], set_of)
                 for set_of in (planted.candidates, echo)]
        cases.append(golden_zipf)
        kept = []
        search_set = Index.search_set

        def keeping(self, *args, **kwargs):
            kept.append(search_set(self, *args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(Index, "search_set", keeping)
        spec = StrategySpec(kind="ear_rd", cap_n=cap_n, k_retrieve=k)
        packed = dense = 0
        for index, store, f, questions, set_of in cases:
            for qa in questions:
                choice = choose(spec, index, store, qa, set_of[qa.qid],
                                rd_model, f)
                (found,) = kept
                kept.clear()
                got = choice.ranked
                (want,) = index.search_set(qa.question,
                                           [choice.expansion], k).lists
                kept.clear()
                assert got.pids() == want.pids()
                assert got.scores.tobytes() == want.scores.tobytes()
                ref = reference_expanded_search(index, qa.question,
                                                choice.expansion, k)
                assert got.pids() == [pid for pid, _ in ref]
                assert got.scores.tobytes() == \
                    np.array([s for _, s in ref], np.float64).tobytes()
                held = [a for a in (found._scores, found._cols,
                                    found._question) if a is not None]
                assert not any(np.shares_memory(a, b) for a in held
                               for b in (got.scores, got._rows))
                packed += found._cols is not None
                dense += found._question is not None
        assert dense and (packed or cap_n == 1)


class TestComposition:
    def test_retrieve_and_labels_share_one_score(self, planted,
                                                 planted_store,
                                                 planted_index, rd_model,
                                                 featurizer):
        """``retrieve`` and labeling score "question + candidate" by one
        definition: ``ear_rd``'s final list is the k=100 labeling list of
        the candidate it chose, pids and score bits, and its answer rank is
        that candidate's label.  So ``oracle``, which takes the lowest
        label, ranks the answer no lower than ``ear_rd``."""
        spec = StrategySpec(kind="ear_rd")
        k = spec.k_retrieve
        for qa in planted.questions:
            cs = planted.candidates[qa.qid]
            choice = choose(spec, planted_index, planted_store, qa, cs,
                            rd_model, featurizer)
            got = retrieve(spec, planted_index, choice)
            labels, lists = label_candidates(planted_index, planted_store, qa,
                                             cs, k)
            chosen = [c.text for c in cs.candidates].index(choice.expansion)
            assert got.pids() == lists[chosen].pids()
            assert got.scores.tobytes() == lists[chosen].scores.tobytes()
            rank = min_answer_rank(got, qa.answers, planted_store) or k + 1
            assert rank == labels[chosen]
            oracle = run_strategy(StrategySpec(kind="oracle"), planted_index,
                                  planted_store, qa, cs)
            assert (min_answer_rank(oracle, qa.answers, planted_store)
                    or k + 1) <= rank


class TestRankedListLayout:
    """Lists are rows into a pid table, uint16 for these small tables: a
    search result, the oracle's prefix of its labeling list and a
    passage-reranked list share the index's, and a run file's lists share
    their pid strings."""

    @staticmethod
    def _rows_into(rl, table):
        return rl._table is table and rl._rows.dtype == np.uint16

    def test_lists_share_the_index_pid_table(self, planted, planted_store,
                                             planted_index, pr_scorer):
        table = planted_index._pid_objs
        qa = planted.questions[0]
        cs = planted.candidates[qa.qid]
        assert self._rows_into(planted_index.search(qa.question, 10), table)
        _, lists = label_candidates(planted_index, planted_store, qa, cs, 1)
        assert all(self._rows_into(rl, table) for rl in lists)
        choice = choose(StrategySpec(kind="oracle", k_retrieve=1),
                        planted_index, planted_store, qa, cs, None, None)
        assert self._rows_into(choice.ranked, table)
        assert len(choice.ranked) == 1
        out = run_strategy(StrategySpec(kind="bm25", pr_depth=5),
                           planted_index, planted_store, qa,
                           passage_scorer=pr_scorer)
        assert self._rows_into(out, table)

    def test_read_run_lists_share_pid_strings(self, planted, planted_store,
                                              planted_index, tmp_path):
        runs = run_dataset(StrategySpec(kind="bm25", k_retrieve=20),
                           planted_index, planted_store,
                           planted.questions[:5])
        # each list twice, so the file's lists hold common pids
        runs.update({f"{q}-again": rl for q, rl in list(runs.items())})
        write_run(runs, tmp_path / "a.trec")
        a = read_run(tmp_path / "a.trec")
        # the file holds each score to 6 decimals
        assert {q: rl.entries for q, rl in a.items()} == \
            {q: [(pid, float(f"{score:.6f}")) for pid, score in rl.entries]
             for q, rl in runs.items()}
        assert all(rl._rows.dtype == np.uint16 for rl in a.values())
        # one str per distinct pid in the file, however many lists hold it
        held = [pid for rl in a.values() for pid in rl.pids()]
        first: dict[str, str] = {}
        assert all(first.setdefault(pid, pid) is pid for pid in held)
        assert len(held) > len(first)


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
