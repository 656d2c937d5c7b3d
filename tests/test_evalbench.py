import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import evalbench
from expandrank.corpus import QAExample
from expandrank.evalbench import (AccuracyReport, RunFormatError,
                                  ablate_candidate_size, bench_latency,
                                  min_answer_rank, read_run, report_csv,
                                  topk_accuracy, write_run)
from expandrank.expansion import sample_expansions_stub
from expandrank.index import Bm25Params, RankedList, build_index
from expandrank.pipeline import StrategySpec, run_strategy
from oracles import reference_strategy_query


def rl(pids):
    n = len(pids)
    return RankedList(pids, [float(n - i) for i in range(n)])


class TestMinAnswerRank:
    def test_head(self, planted, planted_store):
        qa = planted.questions[0]
        answer_pid = f"{qa.qid}-z-ans"
        assert min_answer_rank(rl([answer_pid, f"{qa.qid}-rel00"]),
                               qa.answers, planted_store) == 1

    def test_position_15(self, planted, planted_store):
        qa = planted.questions[0]
        # 14 other questions' answer passages first, then this question's
        pids = [f"q{j:04d}-z-ans" for j in range(1, 15)] + [f"{qa.qid}-z-ans"]
        assert min_answer_rank(rl(pids), qa.answers, planted_store) == 15

    def test_miss_is_none(self, planted, planted_store):
        qa = planted.questions[0]
        assert min_answer_rank(rl([f"{qa.qid}-rel00"]), qa.answers,
                               planted_store) is None

    def test_empty_answers_rejected(self, planted_store):
        with pytest.raises(ValueError):
            min_answer_rank(rl([]), (), planted_store)


class TestTopkAccuracy:
    def test_question_without_answers_named(self, planted20, no_answers):
        fx, store, _ = planted20
        with pytest.raises(ValueError, match="^question noans has no answers$"):
            topk_accuracy({}, fx.questions + [no_answers], store)

    def qa(self, qid="q1"):
        return QAExample(qid=qid, question="?", answers=("gold",))

    def test_all_rank_one(self, planted, planted_store):
        questions = planted.questions[:10]
        runs = {qa.qid: rl([f"{qa.qid}-z-ans"]) for qa in questions}
        report = topk_accuracy(runs, questions, planted_store)
        assert all(v == 1.0 for v in report.accuracies.values())

    def test_threshold(self, planted, planted_store):
        qa = planted.questions[0]
        pids = [f"q{j:04d}-z-ans" for j in range(1, 6)] + [f"{qa.qid}-z-ans"]
        report = topk_accuracy({qa.qid: rl(pids)}, [qa], planted_store)
        assert report.accuracies[5] == 0.0
        assert report.accuracies[20] == 1.0

    def test_repeated_k_rejected(self, planted, planted_store):
        """A k listed twice would count each hit at it twice."""
        questions = planted.questions[:2]
        runs = {questions[0].qid: rl([f"{questions[0].qid}-z-ans"])}
        with pytest.raises(ValueError, match=r"^ks must be distinct, got "
                                             r"\[5, 5, 20\]$"):
            topk_accuracy(runs, questions, planted_store, ks=(5, 5, 20))
        assert topk_accuracy(runs, questions, planted_store,
                             ks=(20, 5)).accuracies == {5: 0.5, 20: 0.5}

    def test_missing_question_counts_as_miss(self, planted, planted_store):
        questions = planted.questions[:4]
        runs = {questions[0].qid: rl([f"{questions[0].qid}-z-ans"])}
        report = topk_accuracy(runs, questions, planted_store)
        assert report.accuracies[100] == 0.25

    def test_unknown_qid_errors(self, planted, planted_store):
        with pytest.raises(ValueError, match="not in QA set"):
            topk_accuracy({"ghost": rl([])}, planted.questions[:2],
                          planted_store)

    def test_matches_hand_count(self, planted, planted_store, planted_index):
        questions = planted.questions[:50]
        runs = {qa.qid: planted_index.search(qa.question, 100)
                for qa in questions}
        report = topk_accuracy(runs, questions, planted_store, ks=(5,))
        hand = sum(
            1 for qa in questions
            if (min_answer_rank(runs[qa.qid], qa.answers, planted_store) or 999)
            <= 5
        )
        assert report.accuracies[5] == pytest.approx(hand / len(questions))

    def test_permutation_invariant(self, planted, planted_store, planted_index):
        questions = planted.questions[:20]
        runs = {qa.qid: planted_index.search(qa.question, 100)
                for qa in questions}
        a = topk_accuracy(runs, questions, planted_store)
        b = topk_accuracy(dict(reversed(runs.items())),
                          list(reversed(questions)), planted_store)
        assert a.accuracies == b.accuracies

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            AccuracyReport(accuracies={1: 0.9, 5: 0.5}, n_questions=10)
        with pytest.raises(ValueError):
            AccuracyReport(accuracies={1: 1.5}, n_questions=10)


class TestAblate:
    def test_n1_oracle_equals_greedy(self, planted, planted_store,
                                     planted_index, planted_split):
        _, qa_test = planted_split
        questions = qa_test[:30]
        oracle_n1 = ablate_candidate_size(
            StrategySpec(kind="oracle"), planted_index,
            planted_store, questions, planted.candidates, [1],
        )[1]
        greedy = ablate_candidate_size(
            StrategySpec(kind="greedy"), planted_index,
            planted_store, questions, planted.candidates, [1],
        )[1]
        assert oracle_n1.accuracies == greedy.accuracies

    def test_oracle_monotone_in_n(self, planted, planted_store, planted_index,
                                  planted_split):
        _, qa_test = planted_split
        reports = ablate_candidate_size(
            StrategySpec(kind="oracle"), planted_index,
            planted_store, qa_test[:40], planted.candidates, [1, 2, 5, 10],
        )
        for k in (1, 5, 20, 100):
            series = [reports[n].accuracies[k] for n in (1, 2, 5, 10)]
            assert series == sorted(series)

    def test_unsorted_ns_rejected(self, planted, planted_store, planted_index):
        with pytest.raises(ValueError):
            ablate_candidate_size(StrategySpec(kind="oracle"), planted_index,
                                  planted_store, [], {}, [5, 1])

    def test_csv_output(self, planted, planted_store, planted_index,
                        planted_split):
        _, qa_test = planted_split
        reports = ablate_candidate_size(
            StrategySpec(kind="oracle"), planted_index,
            planted_store, qa_test[:10], planted.candidates, [1, 5],
        )
        text = report_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0].startswith("N,top1")
        assert len(lines) == 3


class TestBenchLatency:
    def test_bm25_stages_zero(self, planted, planted_store):
        report = bench_latency(planted_store, Bm25Params(),
                               StrategySpec(kind="bm25"),
                               planted.questions[:5])
        assert report.query_expand_s == 0.0
        assert report.query_rerank_s == 0.0
        assert report.retrieval_s > 0.0
        assert report.index_bytes > 0

    def test_rd_rerank_slower_than_ri(self, planted, planted_store, ri_model,
                                      rd_model):
        questions = planted.questions[:8]
        ri = bench_latency(planted_store, Bm25Params(),
                           StrategySpec(kind="ear_ri"),
                           questions, model=ri_model, n_samples=10)
        rd = bench_latency(planted_store, Bm25Params(),
                           StrategySpec(kind="ear_rd"),
                           questions, model=rd_model, n_samples=10)
        assert rd.query_rerank_s > ri.query_rerank_s

    @pytest.mark.parametrize("kind", ["concat", "oracle"])
    def test_times_the_query_the_strategy_issues(self, planted, planted_store,
                                                 monkeypatch, kind):
        """The retrieval ``bench`` times is the strategy's own: the parts
        it issues, which carry an expansion, and the list ``retrieve``
        gives for them, whether searched or kept by the oracle."""
        timed = []
        retrieve = evalbench.retrieve

        def spy(spec, index, choice):
            rl = retrieve(spec, index, choice)
            timed.append(((choice.question, choice.expansion), rl))
            return rl

        monkeypatch.setattr(evalbench, "retrieve", spy)
        questions = planted.questions[:4]
        spec = StrategySpec(kind=kind)
        report = bench_latency(planted_store, Bm25Params(), spec, questions,
                               n_samples=10)
        assert report.query_expand_s > 0.0 and report.query_rerank_s > 0.0

        index = build_index(planted_store, Bm25Params())
        for qa, (parts, rl) in zip(questions, timed, strict=True):
            cs = sample_expansions_stub(qa.question, 10, 0, index,
                                        planted_store)
            assert parts == reference_strategy_query(
                spec, index, planted_store, qa, cs, None, None)
            assert parts[1] is not None
            assert rl == run_strategy(spec, index, planted_store, qa, cs)

    def test_repetitions_validated(self, planted, planted_store):
        with pytest.raises(ValueError):
            bench_latency(planted_store, Bm25Params(),
                          StrategySpec(kind="bm25"), [], repetitions=0)


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        runs = {"q1": rl(["a", "b", "c"]), "q2": rl(["c", "d"])}
        path = tmp_path / "run.trec"
        write_run(runs, path)
        loaded = read_run(path)
        assert {q: r.pids() for q, r in loaded.items()} == \
            {q: r.pids() for q, r in runs.items()}

    @given(st.dictionaries(
        st.text(alphabet="qQ0-9", min_size=1, max_size=4),
        st.tuples(
            st.lists(st.text(alphabet="abcp0123", min_size=1, max_size=4),
                     min_size=1, max_size=20, unique=True),
            st.lists(st.floats(min_value=-1e6, max_value=1e6),
                     min_size=20, max_size=20)),
        max_size=5), st.sampled_from(["t", "bm25", "ear_rd+pr"]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_keeps_six_decimals(self, tmp_path_factory, lists,
                                           tag):
        runs = {qid: RankedList(pids, sorted(scores, reverse=True)[:len(pids)])
                for qid, (pids, scores) in lists.items()}
        path = tmp_path_factory.mktemp("runs") / "run.trec"
        write_run(runs, path, tag)
        loaded = read_run(path)
        assert list(loaded) == list(runs)
        for qid, rl in runs.items():
            assert loaded[qid] == RankedList(
                rl.pids(), [round(s, 6) for s in rl.scores.tolist()])

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        """A blank line holds no entry, and an error past it names the
        file's own line number."""
        path = tmp_path / "blank.trec"
        path.write_text("\nq1 Q0 a 1 2.0 t\n  \nq1 Q0 b 2 1.0 t\n\n")
        assert read_run(path) == {"q1": rl(["a", "b"])}
        path.write_text("q1 Q0 a 1 2.0 t\n\nq1 Q0 b 3 1.0 t\n")
        with pytest.raises(RunFormatError) as exc:
            read_run(path)
        assert str(exc.value).startswith(f"{path}:3: rank 3 breaks")

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 a 1 2.0 t\nq1 Q0 b 3 1.0 t\n")
        with pytest.raises(RunFormatError, match=":2"):
            read_run(path)

    def test_invalid_utf8_names_path_and_line(self, tmp_path):
        # a CRLF line, then a lone CR, which text mode also counts as a line
        path = tmp_path / "bad.trec"
        path.write_bytes(b"q1 Q0 a 1 2.0 t\r\n\rq1 Q0 \xff 2 1.0 t\n")
        with pytest.raises(RunFormatError) as exc:
            read_run(path)
        assert str(exc.value) == f"{path}:3: not valid UTF-8"

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "bad.trec"
        path.write_text(f"q1 Q0 a 1 2.0 t\nq1 Q0 b 2 {score} t\n")
        with pytest.raises(RunFormatError,
                           match=f"{path}:2: score {score} is not finite"):
            read_run(path)

    def test_tag_change_within_a_list_rejected(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 a 1 2.0 bm25\nq1 Q0 b 2 1.0 oracle\n")
        with pytest.raises(RunFormatError,
                           match=f"{path}:2: tag oracle differs"):
            read_run(path)

    def test_tag_may_differ_between_lists(self, tmp_path):
        path = tmp_path / "two.trec"
        path.write_text("q1 Q0 a 1 2.0 bm25\nq2 Q0 b 1 1.0 oracle\n")
        assert {qid: rl.pids() for qid, rl in read_run(path).items()} == {
            "q1": ["a"], "q2": ["b"]}

    @pytest.mark.parametrize("tag", ["", "ear rd", "bm25\n", "\tt", "a\u00a0b"])
    def test_write_run_rejects_a_tag_that_is_not_one_word(self, tmp_path,
                                                          tag):
        path = tmp_path / "run.trec"
        with pytest.raises(ValueError) as exc:
            write_run({"q1": rl(["a", "b"])}, path, tag)
        assert str(exc.value) == \
            f"run tag must be one non-empty word, got {tag!r}"
        assert not path.exists()

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 a 1 2.0\n")
        with pytest.raises(RunFormatError, match="6 columns"):
            read_run(path)

    @pytest.mark.parametrize("rows", [
        "q1 Q0 a 1 1.0 t\nq1 Q0 a 2 2.0 t\n",
        "q1 Q0 a 1 1.0 t\nq1 Q0 b 2 1.5 t\n",
        "q1 Q0 a 1 2.0 t\nq1 Q0 a 2 1.0 t\n",
    ], ids=["duplicate-pid-rising-score", "rising-score", "duplicate-pid"])
    def test_malformed_ranking_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.trec"
        path.write_text("q0 Q0 z 1 1.0 t\n" + rows)
        with pytest.raises(RunFormatError, match="qid q1") as exc:
            read_run(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("rows, fault", [
        ("q1 Q0 a 1 1.0 t\nq1 Q0 b 2 1.5 t\n", "scores not non-increasing"),
        ("q1 Q0 a 1 2.0 t\nq1 Q0 a 2 1.0 t\n", "duplicate pids"),
    ])
    def test_malformed_ranking_names_path_and_qid_once(self, tmp_path, rows,
                                                       fault):
        path = tmp_path / "bad.trec"
        path.write_text("q0 Q0 z 1 1.0 t\n" + rows)
        with pytest.raises(RunFormatError) as exc:
            read_run(path)
        assert str(exc.value) == f"{path}: qid q1: {fault}"

    def test_read_run_holds_no_per_entry_objects(self, tmp_path):
        """Entries cost a reference to one shared str per distinct pid and
        one double: no str per repeated pid, no float object per entry."""
        def retained(n_pids):
            path = tmp_path / f"run{n_pids}.trec"
            path.write_text("".join(
                f"q{q} Q0 passage{j:05d} {j + 1} {1000 - j}.25 t\n"
                for q in range(100) for j in range(n_pids)))
            # Live floats empty the float free list, so a float object that
            # read_run keeps is a traced allocation.
            drain = [float(i) for i in range(5000)]  # noqa: F841
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                runs = read_run(path)
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert runs["q7"].pids()[n_pids - 1] == f"passage{n_pids - 1:05d}"
            assert runs["q7"].scores[0] == 1000.25
            return size

        per_entry = (retained(200) - retained(100)) / (100 * 100)
        assert per_entry <= 24

    def test_imported_run_fusable(self, tmp_path):
        from expandrank.pipeline import fuse
        path = tmp_path / "ext.trec"
        write_run({"q1": rl(["x", "y"])}, path, "dense")
        external = read_run(path)
        fused = fuse([rl(["a", "x"]), external["q1"]], k=10)
        assert fused.pids() == ["a", "x", "y"]
