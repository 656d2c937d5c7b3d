import functools
import hashlib
import json
import operator
import os
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expandrank import cli, evalbench, expansion, pipeline, reranker
from expandrank.cli import main
from expandrank.corpus import Passage, QAExample, load_corpus, load_questions
from expandrank.expansion import CandidateSet, ExpansionCandidate
from expandrank.index import MAGIC, Bm25Params, Index
from expandrank.passage_reranker import PR_DIM, PassageScorer
from expandrank.synth import (make_planted, write_corpus, write_expansions,
                              write_questions)
from expandrank.text import normalize
from oracles import reference_build_index


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Planted dataset written out as the CLI's file-based inputs."""
    root = tmp_path_factory.mktemp("cli")
    fx = make_planted(40, seed=0)
    write_corpus(fx.passages, root / "corpus.jsonl")
    write_questions(fx.questions, root / "questions.jsonl")
    write_expansions(fx.candidates, root / "expansions.jsonl")
    return root


@pytest.fixture(scope="module")
def models(workdir):
    """What the stages read, built once from the planted workdir: the index
    ``idx.bin``, the training set ``train.jsonl``, the ``RI.json`` and
    ``RD.json`` models and the ``bm25.trec`` run.  Each test reads these,
    not files an earlier test wrote, so it passes alone and in any order."""
    root = workdir / "models"
    root.mkdir()
    inputs = ("--index", root / "idx.bin", "--corpus", workdir / "corpus.jsonl")
    assert run("index", "--corpus", workdir / "corpus.jsonl",
               "--out", root / "idx.bin") == 0
    assert run("make-train", *inputs, "--questions",
               workdir / "questions.jsonl", "--expansions",
               workdir / "expansions.jsonl", "--out", root / "train.jsonl") == 0
    for variant in ("RI", "RD"):
        assert run("train", "--train", root / "train.jsonl", *inputs,
                   "--variant", variant, "--out", root / f"{variant}.json") == 0
    assert run("retrieve", *inputs, "--questions", workdir / "questions.jsonl",
               "--strategy", "bm25", "--out", root / "bm25.trec") == 0
    return root


def run(*argv):
    return main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_tags(path):
    """The distinct run names in the tag column of a run file."""
    return {line.split()[5] for line in path.read_text().splitlines()}


def evaluates(run_file, questions, corpus):
    """Whether ``eval`` reads ``run_file`` and exits 0."""
    return run("eval", "--run", run_file, "--questions", questions,
               "--corpus", corpus) == 0


class Hung(Exception):
    """Not a ValueError or OSError, so ``main`` does not turn it into 1."""


def run_within(seconds, *argv):
    """``run(*argv)``, raising Hung if it has not returned in ``seconds``."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(*argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestIndexCmd:
    def test_happy_path(self, workdir, capsys):
        rc = run("index", "--corpus", workdir / "corpus.jsonl",
                 "--out", workdir / "idx.bin")
        assert rc == 0
        assert (workdir / "idx.bin").exists()
        out = capsys.readouterr().out
        assert "documents:" in out and "index_bytes:" in out

    def test_missing_file_exit_2(self, workdir, capsys):
        rc = run("index", "--corpus", workdir / "nope.jsonl",
                 "--out", workdir / "x.bin")
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_rebuild_byte_identical(self, workdir):
        run("index", "--corpus", workdir / "corpus.jsonl",
            "--out", workdir / "idx_a.bin")
        run("index", "--corpus", workdir / "corpus.jsonl",
            "--out", workdir / "idx_b.bin")
        assert sha(workdir / "idx_a.bin") == sha(workdir / "idx_b.bin")

    def test_damaged_index_exit_1(self, workdir, capsys):
        run("index", "--corpus", workdir / "corpus.jsonl",
            "--out", workdir / "whole.bin")
        cut = workdir / "cut.bin"
        cut.write_bytes((workdir / "whole.bin").read_bytes()[:-100])
        rc = run("retrieve", "--index", cut,
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--strategy", "bm25", "--out", workdir / "cut.trec")
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cut) in err and "truncated" in err


class TestMakeTrainCmd:
    def test_too_few_questions_exit_2(self, workdir, models):
        few = workdir / "few.jsonl"
        lines = (workdir / "questions.jsonl").read_text().splitlines()[:3]
        few.write_text("\n".join(lines) + "\n")
        rc = run("make-train", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", few, "--out", workdir / "t.jsonl",
                 "--folds", 5)
        assert rc == 2

    def test_output_schema_and_determinism(self, workdir, models, capsys):
        for name in ("train_a.jsonl", "train_b.jsonl"):
            rc = run("make-train", "--index", models / "idx.bin",
                     "--corpus", workdir / "corpus.jsonl",
                     "--questions", workdir / "questions.jsonl",
                     "--expansions", workdir / "expansions.jsonl",
                     "--out", workdir / name, "--seed", 0)
            assert rc == 0
        assert sha(workdir / "train_a.jsonl") == sha(workdir / "train_b.jsonl")
        assert "rank histogram" in capsys.readouterr().out
        for line in (workdir / "train_a.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"qid", "question", "candidates", "labels", "top2"}
            assert len(obj["labels"]) == len(obj["candidates"])
            assert len(obj["top2"]) == len(obj["candidates"])

    def test_label_objects_of_an_older_version_exit_1(self, workdir, models,
                                                      capsys):
        assert run("make-train", "--index", models / "idx.bin",
                   "--corpus", workdir / "corpus.jsonl",
                   "--questions", workdir / "questions.jsonl",
                   "--expansions", workdir / "expansions.jsonl",
                   "--out", workdir / "train_ints.jsonl") == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in
                (workdir / "train_ints.jsonl").read_text().splitlines()]
        for row in rows:
            row["labels"] = [{"index": i, "r": r, "hit": r <= 100}
                             for i, r in enumerate(row["labels"])]
        old = workdir / "label_objects.jsonl"
        old.write_text("".join(json.dumps(row) + "\n" for row in rows))
        rc = run("train", "--train", old, "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--out", workdir / "never.json")
        assert rc == 1
        label = rows[0]["labels"][0]
        assert capsys.readouterr().err == (
            f"error: {old}:1: rank labels are 1-based integers, but "
            f"labels[0] is {label!r}; re-run make-train\n")
        assert not (workdir / "never.json").exists()

    def test_qid_without_candidates_exit_1(self, workdir, models, tmp_path,
                                           monkeypatch, capsys):
        """A training question the expansions file lacks is named, with
        both files, before any question is labeled."""
        rows = (workdir / "expansions.jsonl").read_text().splitlines()
        dropped = json.loads(rows[-1])["qid"]
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(
            row + "\n" for row in rows if json.loads(row)["qid"] != dropped))
        labeled = []
        label = expansion.label_candidates
        monkeypatch.setattr(expansion, "label_candidates",
                            lambda *a: labeled.append(a) or label(*a))
        rc = run("make-train", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", partial, "--out", tmp_path / "t.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {partial}: no candidates for qid {dropped} of "
            f"{workdir / 'questions.jsonl'}\n")
        assert labeled == []
        assert not (tmp_path / "t.jsonl").exists()


class TestPipelineCmds:
    def test_full_pipeline(self, workdir, models, capsys):
        rc = run("train", "--train", models / "train.jsonl",
                 "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--variant", "RD", "--out", workdir / "rd.json")
        assert rc == 0
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", workdir / "expansions.jsonl",
                 "--strategy", "ear_rd", "--model", workdir / "rd.json",
                 "--out", workdir / "rd.trec")
        assert rc == 0
        rc = run("eval", "--run", workdir / "rd.trec",
                 "--questions", workdir / "questions.jsonl",
                 "--corpus", workdir / "corpus.jsonl",
                 "--out", workdir / "rd_eval.json")
        assert rc == 0
        report = json.loads((workdir / "rd_eval.json").read_text())
        accs = [report["accuracies"][k] for k in sorted(report["accuracies"],
                                                        key=int)]
        assert accs == sorted(accs)

    def test_ear_without_model_exit_2(self, workdir, models, capsys):
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--strategy", "ear_ri",
                 "--out", workdir / "x.trec")
        assert rc == 2

    def test_oracle_without_answers_exit_2(self, workdir, models):
        bare = workdir / "bare.jsonl"
        rows = [json.loads(l) for l in
                (workdir / "questions.jsonl").read_text().splitlines()]
        with open(bare, "w") as fh:
            for row in rows:
                del row["answers"]
                fh.write(json.dumps(row) + "\n")
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", bare, "--strategy", "oracle",
                 "--expansions", workdir / "expansions.jsonl",
                 "--out", workdir / "x.trec")
        assert rc == 2

    @pytest.mark.parametrize("argv,message", [
        (("retrieve", "--cap-n", 0), "cap_n must be >= 1"),
        (("retrieve", "--k", 0), "k_retrieve must be >= 1"),
        (("bench", "--k", 0), "k_retrieve must be >= 1"),
        (("ablate", "--ns", "0,5"), "cap_n must be >= 1"),
        (("retrieve", "--pr-depth", 0), "pr_depth must be >= 1"),
    ])
    def test_bad_strategy_spec_exit_2(self, workdir, models, capsys, argv,
                                      message):
        inputs = {
            "--index": models / "idx.bin",
            "--corpus": workdir / "corpus.jsonl",
            "--questions": workdir / "questions.jsonl",
            "--out": workdir / "spec.out",
        }
        if argv[0] == "bench":
            del inputs["--index"], inputs["--out"]
        rc = run(*argv, "--strategy", "greedy",
                 *(a for item in inputs.items() for a in item))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}, got 0\n"
        assert not (workdir / "spec.out").exists()

    @pytest.mark.parametrize("argv,message", [
        (("index", "--k1", 0), "k1 must be positive, got 0.0"),
        (("train", "--group-batch", 0), "group_batch must be >= 1, got 0"),
        (("train", "--learning-rate", -1),
         "learning_rate must be > 0, got -1.0"),
        (("train-pr", "--epochs", 0), "epochs must be >= 1, got 0"),
        (("train-pr", "--learning-rate", 0),
         "learning_rate must be > 0, got 0.0"),
        (("eval", "--ks", "5,x"), "ks must be integers, got '5,x'"),
        (("eval", "--ks", "0,5"), "ks must be >= 1, got 0"),
        (("ablate", "--ns", "5,x"), "cap_n must be integers, got '5,x'"),
        (("index", "--k1", "nan"), "k1 must be finite, got nan"),
        (("index", "--k1", "inf"), "k1 must be finite, got inf"),
        (("train", "--alpha", "nan"),
         "alpha must be positive and finite, got nan"),
        (("train", "--alpha", "inf"),
         "alpha must be positive and finite, got inf"),
        (("make-train", "--k-retrieve", 0), "k_retrieve must be >= 1, got 0"),
        (("train", "--learning-rate", "inf"),
         "learning_rate must be finite, got inf"),
        (("train-pr", "--learning-rate", "inf"),
         "learning_rate must be finite, got inf"),
        (("fuse", "--k", 0), "k must be >= 1, got 0"),
        (("bench", "--repetitions", 0), "repetitions must be >= 1, got 0"),
        (("retrieve", "--n-samples", 0), "n_samples must be >= 1, got 0"),
        (("make-train", "--n-samples", 0), "n_samples must be >= 1, got 0"),
        (("bench", "--n-samples", 0), "n_samples must be >= 1, got 0"),
        (("ablate", "--n-samples", 0), "n_samples must be >= 1, got 0"),
        (("eval", "--ks", "5,5,20"), "ks lists 5 more than once"),
        (("ablate", "--ns", "10,5,10"), "cap_n lists 10 more than once"),
        (("train-pr", "--train-depth", 0), "train_depth must be >= 1, got 0"),
        (("train", "--epochs", 0), "epochs must be >= 1, got 0"),
    ])
    def test_bad_flag_exit_2(self, workdir, models, capsys, argv, message):
        """A flag value is checked before any input is read or output
        written."""
        inputs = {
            "index": ("--corpus",),
            "make-train": ("--index", "--corpus", "--questions"),
            "train": ("--train", "--index", "--corpus"),
            "train-pr": ("--index", "--corpus", "--questions"),
            "retrieve": ("--index", "--corpus", "--questions"),
            "eval": ("--run", "--questions", "--corpus"),
            "ablate": ("--index", "--corpus", "--questions"),
            "bench": ("--corpus", "--questions"),
            "fuse": ("--runs",),
        }[argv[0]]
        files = {"--index": models / "idx.bin",
                 "--corpus": workdir / "corpus.jsonl",
                 "--questions": workdir / "questions.jsonl",
                 "--train": models / "train.jsonl",
                 "--run": models / "bm25.trec", "--runs": models / "bm25.trec"}
        out = () if argv[0] == "bench" else ("--out", workdir / "flag.out")
        rc = run(*argv, *out,
                 *(a for flag in inputs for a in (flag, files[flag])))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "flag.out").exists()

    def test_non_object_corpus_row_exit_1(self, workdir, capsys):
        bad = workdir / "bad_corpus.jsonl"
        bad.write_text('{"id": "p0", "title": "", "text": "ok"}\n'
                       '["p1", "t", "x"]\n')
        rc = run("index", "--corpus", bad, "--out", workdir / "bad.bin")
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: {bad}:2: expected a JSON object\n")
        assert not (workdir / "bad.bin").exists()

    def test_bad_expansions_row_exit_1(self, workdir, models, capsys):
        bad = workdir / "bad_expansions.jsonl"
        bad.write_text('{"qid": "q0", "generator_tag": "stub", "text": "x"}\n'
                       '{"generator_tag": "stub", "text": "y"}\n')
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", bad, "--strategy", "greedy",
                 "--out", workdir / "bad.trec")
        assert rc == 1
        assert f"{bad}:2: missing field 'qid'" in capsys.readouterr().err

    def test_ablate_csv(self, workdir, models, capsys):
        rc = run("ablate", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", workdir / "expansions.jsonl",
                 "--strategy", "oracle", "--ns", "1,5,10",
                 "--out", workdir / "ablate.csv")
        assert rc == 0
        assert (workdir / "ablate.csv").read_text().startswith("N,top1")

    def test_fuse_cmd(self, workdir, models):
        run("retrieve", "--index", models / "idx.bin",
            "--corpus", workdir / "corpus.jsonl",
            "--questions", workdir / "questions.jsonl",
            "--expansions", workdir / "expansions.jsonl",
            "--strategy", "greedy", "--out", workdir / "greedy.trec")
        rc = run("fuse", "--runs", workdir / "greedy.trec",
                 models / "bm25.trec", "--out", workdir / "fused.trec",
                 "--k", 50)
        assert rc == 0
        assert run_tags(workdir / "fused.trec") == {"fusion"}
        assert evaluates(workdir / "fused.trec", workdir / "questions.jsonl",
                         workdir / "corpus.jsonl")

    def test_retrieve_names_the_run_after_its_strategy(self, workdir, models):
        """The tag column holds the strategy, with "+pr" when passages are
        reranked; the lists themselves carry no name."""
        inputs = ("--index", models / "idx.bin",
                  "--corpus", workdir / "corpus.jsonl",
                  "--questions", workdir / "questions.jsonl")
        assert run_tags(models / "bm25.trec") == {"bm25"}
        for kind in ("greedy", "oracle"):
            out = workdir / f"named_{kind}.trec"
            assert run("retrieve", *inputs, "--expansions",
                       workdir / "expansions.jsonl", "--strategy", kind,
                       "--out", out) == 0
            assert run_tags(out) == {kind}
        pr = workdir / "named_pr.json"
        assert run("train-pr", *inputs, "--out", pr) == 0
        out = workdir / "named_bm25_pr.trec"
        assert run("retrieve", *inputs, "--strategy", "bm25",
                   "--pr-model", pr, "--out", out) == 0
        assert run_tags(out) == {"bm25+pr"}
        # each list is longer than 3, so the reranked entries score above
        # the floor of the first one past the depth
        out = workdir / "named_ear_rd_pr.trec"
        assert run("retrieve", *inputs, "--expansions",
                   workdir / "expansions.jsonl", "--strategy", "ear_rd",
                   "--model", models / "RD.json", "--pr-model", pr,
                   "--pr-depth", 3, "--out", out) == 0
        assert run_tags(out) == {"ear_rd+pr"}
        assert evaluates(out, workdir / "questions.jsonl",
                         workdir / "corpus.jsonl")

    def test_cap_applies_after_dedup(self, tmp_path):
        """``--cap-n`` keeps the first n distinct candidates: of the rows
        "Blue cat", "blue CAT!" and "red dog", the second repeats the first
        once normalized, so ``concat --cap-n 2`` issues the question plus
        "Blue cat red dog".  Capping the rows before they are deduplicated
        would issue "Blue cat" alone, which ranks the passages otherwise."""
        write_corpus([Passage(id=f"p{i}", title="", text=text)
                      for i, text in enumerate((
                          "the blue cat sleeps", "a red dog barks",
                          "the cat and the dog play", "pets play at home",
                          "a red kite"))], tmp_path / "corpus.jsonl")
        question = "which pets play"
        write_questions([QAExample("q1", question, ("home",))],
                        tmp_path / "questions.jsonl")
        (tmp_path / "expansions.jsonl").write_text("".join(
            json.dumps({"qid": "q1", "text": text}) + "\n"
            for text in ("Blue cat", "blue CAT!", "red dog")))
        assert run("index", "--corpus", tmp_path / "corpus.jsonl",
                   "--out", tmp_path / "idx.bin") == 0
        assert run("retrieve", "--index", tmp_path / "idx.bin",
                   "--corpus", tmp_path / "corpus.jsonl",
                   "--questions", tmp_path / "questions.jsonl",
                   "--expansions", tmp_path / "expansions.jsonl",
                   "--strategy", "concat", "--cap-n", 2,
                   "--out", tmp_path / "capped.trec") == 0
        index = Index.load(tmp_path / "idx.bin")
        (want,) = index.search_set(question, ["Blue cat red dog"], 100).lists
        (rows_capped,) = index.search_set(question, ["Blue cat"], 100).lists
        assert want != rows_capped
        evalbench.write_run({"q1": want}, tmp_path / "want.trec", "concat")
        assert (tmp_path / "capped.trec").read_bytes() == \
            (tmp_path / "want.trec").read_bytes()

    def test_fuse_keeps_qids_missing_from_first_run(self, workdir):
        (workdir / "one.trec").write_text("q1 Q0 a 1 2.0 t\n")
        (workdir / "two.trec").write_text("q1 Q0 b 1 2.0 t\n"
                                          "q2 Q0 c 1 1.0 t\n")
        rc = run("fuse", "--runs", workdir / "one.trec", workdir / "two.trec",
                 "--out", workdir / "union.trec")
        assert rc == 0
        lines = (workdir / "union.trec").read_text().splitlines()
        assert [l.split()[:3] for l in lines] == [
            ["q1", "Q0", "a"], ["q1", "Q0", "b"], ["q2", "Q0", "c"]]

    def test_damaged_model_exit_1(self, workdir, models, capsys):
        rc = run("train", "--train", models / "train.jsonl",
                 "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--variant", "RI", "--out", workdir / "ri.json")
        assert rc == 0
        doc = json.loads((workdir / "ri.json").read_text())
        doc["weights"] = doc["weights"][:5]
        bad = workdir / "ri_short.json"
        bad.write_text(json.dumps(doc))
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", workdir / "expansions.jsonl",
                 "--strategy", "ear_ri", "--model", bad,
                 "--out", workdir / "short.trec")
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "weights" in err
        assert not (workdir / "short.trec").exists()

    def test_train_on_empty_training_set_exit_1(self, workdir, models,
                                                capsys):
        empty = workdir / "empty_train.jsonl"
        empty.write_text("")
        rc = run("train", "--train", empty, "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl", "--variant", "RI",
                 "--out", workdir / "empty_ri.json")
        assert rc == 1
        assert capsys.readouterr().err == "error: no training questions\n"
        assert not (workdir / "empty_ri.json").exists()

    def fails_one_question(self, workdir, models, capsys, strategy):
        """``retrieve`` with one qid's expansions removed writes the other
        39 lists and exits 1."""
        rows = (workdir / "expansions.jsonl").read_text().splitlines()
        dropped = json.loads(rows[0])["qid"]
        partial = workdir / "partial_expansions.jsonl"
        partial.write_text("".join(
            row + "\n" for row in rows if json.loads(row)["qid"] != dropped))
        out = workdir / f"partial-{strategy}.trec"
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", partial, "--strategy", strategy,
                 "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if "questions failed" in line] == [
            "ERROR: 1/40 questions failed"]
        qids = {line.split()[0] for line in out.read_text().splitlines()}
        assert len(qids) == 39 and dropped not in qids

    def test_failed_questions_exit_1(self, workdir, models, capsys):
        self.fails_one_question(workdir, models, capsys, "greedy")

    def test_concat_without_candidates_fails(self, workdir, models, capsys):
        self.fails_one_question(workdir, models, capsys, "concat")

    def test_eval_warns_of_questions_without_a_list(self, workdir, capsys):
        empty = workdir / "empty.trec"
        empty.write_text("")
        rc = run("eval", "--run", empty,
                 "--questions", workdir / "questions.jsonl",
                 "--corpus", workdir / "corpus.jsonl", "--ks", "1,5")
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: 40/40 questions have no list in "
                                f"{empty}; each counts as a miss\n")
        assert captured.out.endswith(
            "empty.trec (40 questions)\ntop-1     top-5   \n"
            "0.0000    0.0000  \n")

    def test_bench_cmd(self, workdir, models, capsys):
        for strategy in (("bm25",), ("oracle", "--n-samples", 10),
                         ("ear_rd", "--model", models / "RD.json",
                          "--n-samples", 10)):
            rc = run("bench", "--corpus", workdir / "corpus.jsonl",
                     "--questions", workdir / "questions.jsonl",
                     "--strategy", *strategy, "--repetitions", 1)
            assert rc == 0
            lines = capsys.readouterr().out.splitlines()
            payload = json.loads("\n".join(lines[lines.index("{"):]))
            assert payload["queries_measured"] == 40

    def test_train_pr_cmd(self, workdir, models):
        rc = run("train-pr", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--out", workdir / "pr.json")
        assert rc == 0


class TestUnknownPassages:
    def test_eval_run_names_unknown_pid_exit_1(self, workdir, capsys):
        run_file = workdir / "unknown_pid.trec"
        run_file.write_text("q0000 Q0 nosuch 1 2.0 t\n")
        rc = run("eval", "--run", run_file,
                 "--questions", workdir / "questions.jsonl",
                 "--corpus", workdir / "corpus.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {run_file}: qid q0000 names passage 'nosuch', which "
            f"the corpus lacks\n")

    def test_eval_run_names_unknown_qid_exit_1(self, workdir, capsys):
        """A qid the questions file lacks is named with both files."""
        run_file = workdir / "unknown_qid.trec"
        run_file.write_text("q0000 Q0 q0000-z-ans 1 2.0 t\n"
                            "nosuch Q0 q0000-z-ans 1 2.0 t\n")
        questions = workdir / "questions.jsonl"
        rc = run("eval", "--run", run_file, "--questions", questions,
                 "--corpus", workdir / "corpus.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {run_file}: qid nosuch is not in {questions}\n")

    def test_eval_unknown_pid_after_the_answer_exit_1(self, workdir, capsys):
        """Every pid is checked, not only those the answer matcher reads
        before it reaches the answer."""
        run_file = workdir / "unknown_pid_late.trec"
        run_file.write_text("q0000 Q0 q0000-z-ans 1 2.0 t\n"
                            "q0000 Q0 nosuch 2 1.0 t\n")
        rc = run("eval", "--run", run_file,
                 "--questions", workdir / "questions.jsonl",
                 "--corpus", workdir / "corpus.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {run_file}: qid q0000 names passage 'nosuch', which "
            f"the corpus lacks\n")

    def test_train_top2_names_unknown_pid_exit_1(self, workdir, models,
                                                 capsys):
        """Either variant names the row and the qid of a top-2 pid the
        corpus lacks, before training; RI reads no top-2 list."""
        rows = [json.loads(line) for line in
                (models / "train.jsonl").read_text().splitlines()]
        rows[3]["top2"][0][0][0] = "nosuch"
        bad = workdir / "unknown_pid_train.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        for variant in ("RD", "RI"):
            out = workdir / f"unknown_pid_{variant}.json"
            rc = run("train", "--train", bad, "--index", models / "idx.bin",
                     "--corpus", workdir / "corpus.jsonl", "--variant",
                     variant, "--out", out)
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: {bad}:4: qid {rows[3]['qid']}: top2[0] names "
                f"passage 'nosuch', which the corpus lacks\n")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["retrieve", "train"])
    def test_index_corpus_mismatch_exit_2(self, workdir, models, monkeypatch,
                                          capsys, command):
        rows = (workdir / "corpus.jsonl").read_text().splitlines()
        half = workdir / "half_corpus.jsonl"
        half.write_text("".join(row + "\n" for row in rows[::2]))
        dropped = {json.loads(row)["id"] for row in rows[1::2]}
        def forbidden(*args, **kwargs):
            raise AssertionError("ran a question or trained")
        monkeypatch.setattr(pipeline, "run_dataset", forbidden)
        monkeypatch.setattr(cli, "train", forbidden)
        argv = {
            "retrieve": ["--questions", workdir / "questions.jsonl",
                         "--strategy", "oracle",
                         "--expansions", workdir / "expansions.jsonl"],
            "train": ["--train", models / "train.jsonl"],
        }[command]
        out = workdir / f"mismatch-{command}.out"
        rc = run(command, "--index", models / "idx.bin", "--corpus", half,
                 *argv, "--out", out)
        assert rc == 2
        named = re.fullmatch(
            f"error: index {re.escape(str(models / 'idx.bin'))} names "
            f"passage '(.+)', which corpus {re.escape(str(half))} lacks\n",
            capsys.readouterr().err)
        assert named and named[1] in dropped
        assert not out.exists()

    @pytest.mark.parametrize("text,words,most", [("alpha beta", 2, 28),
                                                 ("the of and", 0, 0)])
    def test_stub_too_few_words_exit_1(self, tmp_path, capsys, text, words,
                                       most):
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"id": "p0", "title": "", "text": text}) + "\n")
        (tmp_path / "questions.jsonl").write_text(
            json.dumps({"qid": "q0", "question": "alpha"}) + "\n")
        assert run("index", "--corpus", tmp_path / "corpus.jsonl",
                   "--out", tmp_path / "idx.bin") == 0
        capsys.readouterr()
        rc = run_within(1.0, "retrieve", "--index", tmp_path / "idx.bin",
                        "--corpus", tmp_path / "corpus.jsonl",
                        "--questions", tmp_path / "questions.jsonl",
                        "--strategy", "greedy", "--out", tmp_path / "x.trec")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --n-samples 50 exceeds the {most} distinct candidates "
            f"the stub sampler can compose from {words} corpus words\n")




def _no_candidates_or_index(monkeypatch):
    """Make reading candidates or building an index fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("read candidates or built an index")
    monkeypatch.setattr(expansion, "load_expansions", forbidden)
    monkeypatch.setattr(expansion, "sample_expansions_stub", forbidden)
    monkeypatch.setattr(evalbench, "sample_expansions_stub", forbidden)
    monkeypatch.setattr(evalbench, "build_index", forbidden)


class TestStrategyNeeds:
    @pytest.mark.parametrize("command", ["retrieve", "bench", "ablate"])
    @pytest.mark.parametrize("strategy,variant",
                             [("ear_ri", "RD"), ("ear_rd", "RI")])
    def test_other_variant_exit_2(self, workdir, models, monkeypatch, capsys,
                                  command, strategy, variant):
        argv = {
            "retrieve": ["--index", models / "idx.bin",
                         "--expansions", workdir / "expansions.jsonl",
                         "--out", workdir / "mismatch.trec"],
            "bench": [],
            "ablate": ["--index", models / "idx.bin",
                       "--expansions", workdir / "expansions.jsonl"],
        }[command]
        _no_candidates_or_index(monkeypatch)
        rc = run(command, "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl", *argv,
                 "--strategy", strategy, "--model", models / f"{variant}.json")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"strategy {strategy} needs a trained" in err
        assert f"got an {variant} model" in err
        assert not (workdir / "mismatch.trec").exists()

    def test_bench_oracle_without_answers_as_retrieve(self, workdir, models,
                                                      monkeypatch, capsys):
        bare = workdir / "unlabeled.jsonl"
        bare.write_text("".join(
            json.dumps({k: v for k, v in json.loads(line).items()
                        if k != "answers"}) + "\n"
            for line in (workdir / "questions.jsonl").read_text().splitlines()))
        _no_candidates_or_index(monkeypatch)
        errors = []
        for argv in (("retrieve", "--index", models / "idx.bin",
                      "--out", workdir / "unlabeled.trec"), ("bench",)):
            rc = run(*argv, "--corpus", workdir / "corpus.jsonl",
                     "--questions", bare, "--strategy", "oracle")
            assert rc == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "strategy oracle needs questions with answers" in errors[0]


class TestLogging:
    def test_unknown_qid_warned_once_with_its_line(self, workdir, models,
                                                   capsys):
        """Log records reach stderr through the handler ``main`` sets up:
        a qid the questions lack is named once, at its first line, however
        many rows it has and however often ``main`` runs; ``--log-level
        ERROR`` silences it."""
        rows = (workdir / "expansions.jsonl").read_text().splitlines()
        extra = workdir / "unknown_qid_expansions.jsonl"
        extra.write_text("".join(row + "\n" for row in rows) + "".join(
            json.dumps({"qid": "nosuch", "generator_tag": "stub",
                        "text": text}) + "\n" for text in ("one", "two")))
        argv = ("retrieve", "--index", models / "idx.bin",
                "--corpus", workdir / "corpus.jsonl",
                "--questions", workdir / "questions.jsonl",
                "--expansions", extra, "--strategy", "greedy",
                "--out", workdir / "unknown_qid.trec")
        warning = (f"WARNING: {extra}:{len(rows) + 1}: qid nosuch not in QA "
                   f"set; keeping row\n")
        for _ in range(2):
            assert run(*argv) == 0
            assert capsys.readouterr().err == warning
        assert run("--log-level", "error", *argv) == 0
        assert capsys.readouterr().err == ""


def _split_index(raw: bytes) -> tuple[dict, bytes]:
    """The JSON header of a saved index and the bytes of its arrays."""
    magic = len(MAGIC)
    (hlen,) = struct.unpack("<Q", raw[magic:magic + 8])
    return (json.loads(raw[magic + 8:magic + 8 + hlen]),
            raw[magic + 8 + hlen:])


def _index_bytes(header_text: str, arrays: bytes) -> bytes:
    blob = header_text.encode()
    return MAGIC + struct.pack("<Q", len(blob)) + blob + arrays


def _with_index_header(raw: bytes, **fields) -> bytes:
    """The bytes of a saved index with ``fields`` set in its JSON header."""
    header, arrays = _split_index(raw)
    return _index_bytes(json.dumps({**header, **fields}), arrays)


class TestRejectedInputs:
    @pytest.mark.parametrize("rank, score, why", [
        ("two", "1.0", "invalid literal for int() with base 10: 'two'"),
        ("2", "high", "could not convert string to float: 'high'"),
    ])
    def test_eval_non_numeric_rank_or_score_exit_1(self, workdir, tmp_path,
                                                    capsys, rank, score, why):
        bad = tmp_path / "bad.trec"
        bad.write_text(f"q0000 Q0 a 1 2.0 t\nq0000 Q0 b {rank} {score} t\n")
        rc = run("eval", "--run", bad,
                 "--questions", workdir / "questions.jsonl",
                 "--corpus", workdir / "corpus.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:2: {why}\n"

    @pytest.mark.parametrize("fields, why", [
        ({"pids": [0]}, "pids and terms must be lists of strings"),
        ({"terms": None}, "pids and terms must be lists of strings"),
        ({"postings": -1}, "postings must be a non-negative int, got -1"),
        ({"postings": 1.5}, "postings must be a non-negative int, got 1.5"),
    ])
    def test_index_header_of_wrong_types_exit_1(self, workdir, models,
                                                tmp_path, capsys, fields,
                                                why):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(_with_index_header(
            (models / "idx.bin").read_bytes(), **fields))
        rc = run("retrieve", "--index", bad,
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--strategy", "bm25", "--out", tmp_path / "never.trec")
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: corrupt index: {why}\n"
        assert not (tmp_path / "never.trec").exists()

    def test_train_pr_without_retrieved_passages_exit_1(self, workdir, models,
                                                         tmp_path, capsys):
        """Questions none of whose terms any passage holds leave the
        passage reranker nothing to train on."""
        questions = tmp_path / "void.jsonl"
        questions.write_text("".join(
            json.dumps({"qid": f"v{i}", "question": f"xyzzy{i} quux",
                        "answers": ["nothing"]}) + "\n" for i in range(2)))
        rc = run("train-pr", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", questions, "--out", tmp_path / "pr.json")
        assert rc == 1
        assert capsys.readouterr().err == (
            "WARNING: question v0 retrieved no passages; skipped\n"
            "WARNING: question v1 retrieved no passages; skipped\n"
            f"error: no training instances: none of the 2 questions of "
            f"{questions} retrieved a passage from {models / 'idx.bin'}\n")
        assert not (tmp_path / "pr.json").exists()

    @pytest.mark.parametrize("variant", ["RI", "RD", "PR"])
    def test_v1_model_must_be_retrained_exit_1(self, workdir, models,
                                               tmp_path, capsys, variant):
        """A model file of an older schema.  RI's and RD's are v1, from
        before the bias column was dropped: one more column, the bias, at
        index 8.  PR's is v2, with the same five columns, from before its
        question overlap became an index statistic."""
        schema = "pr-v2" if variant == "PR" else f"{variant.lower()}-v1"
        old = tmp_path / f"{schema}.json"
        if variant == "PR":
            PassageScorer(np.ones(PR_DIM), np.zeros(PR_DIM),
                          np.ones(PR_DIM)).save(old)
            doc = json.loads(old.read_text())
            model = ("--strategy", "bm25", "--pr-model", old)
        else:
            doc = json.loads((models / f"{variant}.json").read_text())
            for field, value in (("weights", 0.0), ("feature_mean", 0.0),
                                 ("feature_std", 1.0)):
                doc[field].insert(8, value)
            model = ("--expansions", workdir / "expansions.jsonl",
                     "--strategy", f"ear_{variant.lower()}", "--model", old)
        doc["schema_id"] = schema
        old.write_text(json.dumps(doc))
        rc = run("retrieve", "--index", models / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl", *model,
                 "--out", tmp_path / "never.trec")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {old}: schema_id: unknown schema '{schema}'; "
            f"re-train the model\n")
        assert not (tmp_path / "never.trec").exists()


# JSON that parses but that no reader may take, as raw text: an integer
# no float64 holds, a value nested 1,000 deep, and an id holding a lone
# surrogate, which UTF-8 cannot encode
_RAW_DAMAGES = {"oversized": "1" + "0" * 400,
                "nested": "[" * 1000 + "]" * 1000,
                "surrogate": '"q\\udc00"'}

# input -> [(key path of the damaged value in the input's first row or
# document, damage)]: each numeric field, a model's schema and variant
# (whose errors echo the value), an id where the input has one, and one
# nested value
_JSON_DAMAGES = {
    "corpus": [(("id",), "surrogate"), (("title",), "nested")],
    "questions": [(("qid",), "surrogate"), (("answers",), "nested")],
    "expansions": [(("qid",), "surrogate"), (("text",), "nested")],
    "train": [(("qid",), "surrogate"), (("labels", 0), "oversized"),
              (("top2", 0, 0, 1), "oversized"),
              (("candidates",), "nested")],
    **{model: [(("format_version",), "oversized"),
               (("schema_id",), "oversized"), (("variant",), "oversized"),
               (("weights", 0), "oversized"),
               (("feature_mean", 0), "oversized"),
               (("feature_std", 0), "oversized"),
               (("weights",), "nested")] for model in ("model", "pr_model")},
    "index": [(("params", "k1"), "oversized"), (("params", "b"), "oversized"),
              (("postings",), "oversized"), (("pids",), "nested")],
}


def _with_raw(doc, where, raw: str) -> str:
    """The JSON text of ``doc`` with the value at key path ``where``
    written as the JSON text ``raw``; ``doc`` is changed."""
    *outer, last = where
    functools.reduce(operator.getitem, outer, doc)[last] = "@damage@"
    return json.dumps(doc).replace('"@damage@"', raw)


class TestDamagedJson:
    @pytest.mark.parametrize("name, where, damage", [
        pytest.param(name, where, damage,
                     id=f"{name}-{'.'.join(map(str, where))}-{damage}")
        for name, cases in _JSON_DAMAGES.items()
        for where, damage in cases])
    def test_rejected_with_the_file_named_exit_1(self, workdir, models,
                                                 tmp_path, capsys, name,
                                                 where, damage):
        """Each JSON input the CLI reads, damaged, fails the command that
        reads it with exit code 1 and an error naming it, and no output."""
        files = {"corpus": workdir / "corpus.jsonl",
                 "questions": workdir / "questions.jsonl",
                 "expansions": workdir / "expansions.jsonl",
                 "train": models / "train.jsonl", "model": models / "RD.json",
                 "pr_model": tmp_path / "pr.json", "index": models / "idx.bin"}
        PassageScorer(np.ones(PR_DIM), np.zeros(PR_DIM),
                      np.ones(PR_DIM)).save(files["pr_model"])
        good, raw = files[name], _RAW_DAMAGES[damage]
        bad = files[name] = tmp_path / f"bad_{good.name}"
        if name == "index":
            header, arrays = _split_index(good.read_bytes())
            bad.write_bytes(_index_bytes(_with_raw(header, where, raw),
                                         arrays))
        elif good.suffix == ".json":
            bad.write_text(_with_raw(json.loads(good.read_text()), where, raw))
        else:
            first, rest = good.read_text().split("\n", 1)
            bad.write_text(_with_raw(json.loads(first), where, raw) + "\n"
                           + rest)
        out = tmp_path / "out"
        inputs = ("--index", files["index"], "--corpus", files["corpus"])
        retrieve = ("retrieve", *inputs, "--questions", files["questions"],
                    "--out", out)
        argv = {
            "corpus": ("index", "--corpus", files["corpus"], "--out", out),
            "expansions": (*retrieve, "--strategy", "greedy",
                           "--expansions", files["expansions"]),
            "train": ("train", "--train", files["train"], *inputs,
                      "--out", out),
            "model": (*retrieve, "--strategy", "ear_rd", "--expansions",
                      files["expansions"], "--model", files["model"]),
            "pr_model": (*retrieve, "--pr-model", files["pr_model"]),
        }.get(name, retrieve)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}" in err
        assert not re.search(r"\d{40}", err), "echoes an oversized number"
        assert not out.exists()


@pytest.fixture(scope="module")
def echo(workdir):
    """``echo_expansions.jsonl``: candidates that repeat the question,
    so that, scored by parts, greedy's expansion counts each question term
    twice and concat's 3 times; a stopword-only candidate, alone in every
    other set, gives greedy and concat an empty expansion part."""
    path = workdir / "echo_expansions.jsonl"
    stop = ExpansionCandidate("the of and")
    write_expansions({qa.qid: CandidateSet(qa.qid, [
        ExpansionCandidate(f"{qa.question} {qa.question}"),
        ExpansionCandidate(qa.question), stop] if i % 2 else [stop])
        for i, qa in enumerate(load_questions(workdir / "questions.jsonl"))},
        path)
    return path


# Answer passages that spell their answers only in compatibility forms (a
# ligature, fullwidth letters and digits, the Kelvin sign, a Roman
# numeral), beside accented passages that share a question term
COMPATIBILITY_FORMS = {
    "u0": "The harbour marathon course is ﬁve ｍｉｌｅｓ long.",
    "u1": "At full heat the kiln can reach １２００ Kelvin.",
    "u2": "The treaty of the valley is copied in Chapter Ⅻ of the annals.",
    "u3": "Le café près du harbour sert une crème brûlée.",
    "u4": "Die Straße nach Zürich führt zum kiln, ein naïves Résumé.",
    "u5": "São Paulo é uma cidade do valley; Ελλάδα é outro país.",
}
COMPATIBILITY_QUESTIONS = [
    QAExample("u0", "how long is the harbour marathon course",
              ("five miles",)),
    QAExample("u1", "what heat can the kiln reach", ("1200 kelvin",)),
    QAExample("u2", "which chapter copies the treaty of the valley",
              ("chapter xii",)),
]


def retrieve(workdir, models, out, *argv):
    """``out``, written by ``retrieve`` over the planted workdir."""
    assert run("retrieve", "--index", models / "idx.bin",
               "--corpus", workdir / "corpus.jsonl",
               "--questions", workdir / "questions.jsonl", *argv,
               "--out", out) == 0
    return out


def model_argv(models, strategy):
    """``--model`` and the file of the scorer ``strategy`` runs, if any."""
    scorer = pipeline.STRATEGIES[strategy].scorer
    return ("--model", models / f"{scorer}.json") if scorer else ()


class TestEndToEnd:
    """Runs that only the whole chain of stages makes: each strategy over
    the planted candidates and over ``echo``'s, at several depths and
    caps, the analyzer flags, the stub sampler, and a corpus of
    compatibility forms."""

    @pytest.mark.parametrize("strategy, cands", [
        ("bm25", "expansions"),
        *((strategy, cands) for strategy in ("concat", "greedy", "ear_ri",
                                             "ear_rd")
          for cands in ("expansions", "echo"))])
    def test_shallow_run_is_the_head_of_the_deep_run(
            self, workdir, models, echo, tmp_path, strategy, cands):
        """A list of at most 2 is selected by argmax passes, a longer one
        by a partial sort; greedy's and ear_ri's final list is a
        one-expansion set search on a dense vector, and ear_rd's is cut
        from the scores of its top-2 set search.  Each run at ``--k`` 1
        and 2 is the ``--k 100`` run's lines of rank <= k, byte for byte,
        and every run names its strategy and evaluates."""
        argv = ("--strategy", strategy, *model_argv(models, strategy),
                "--expansions",
                echo if cands == "echo" else workdir / "expansions.jsonl")
        deep = retrieve(workdir, models, tmp_path / "100.trec", *argv,
                        "--k", 100)
        lines = deep.read_text().splitlines(keepends=True)
        for k in (1, 2):
            shallow = retrieve(workdir, models, tmp_path / f"{k}.trec",
                               *argv, "--k", k)
            assert shallow.read_text() == "".join(
                line for line in lines if int(line.split()[3]) <= k)
        assert run_tags(deep) == {strategy}
        assert evaluates(deep, workdir / "questions.jsonl",
                         workdir / "corpus.jsonl")

    def test_one_candidate_makes_ear_choose_greedys(self, workdir, models,
                                                    tmp_path):
        """Capped at one candidate, ear_rd and ear_ri choose greedy's:
        ear_rd cuts its list from its own search of that candidate, and
        ear_ri, whose selection searches nothing, searches it once chosen.
        Every column but the tag equals greedy's."""
        columns = {}
        for strategy in ("greedy", "ear_ri", "ear_rd"):
            out = retrieve(workdir, models, tmp_path / f"{strategy}.trec",
                           "--expansions", workdir / "expansions.jsonl",
                           "--strategy", strategy,
                           *model_argv(models, strategy), "--cap-n", 1)
            assert run_tags(out) == {strategy}
            columns[strategy] = [line.split()[:5] for line in
                                 out.read_text().splitlines()]
        assert columns["ear_rd"] == columns["greedy"] == columns["ear_ri"]

    def test_analyzer_flags(self, workdir, tmp_path):
        """``index --no-stemming --no-stopwords --index-titles`` writes the
        reference builder's index of those params, byte for byte, and the
        stages after it read that index."""
        corpus = workdir / "corpus.jsonl"
        questions = workdir / "questions.jsonl"
        raw = tmp_path / "raw.bin"
        assert run("index", "--corpus", corpus, "--out", raw, "--no-stemming",
                   "--no-stopwords", "--index-titles") == 0
        reference_build_index(load_corpus(corpus), Bm25Params(
            stemming=False, stopwords=False, index_titles=True),
        ).save(tmp_path / "reference.bin")
        assert raw.read_bytes() == (tmp_path / "reference.bin").read_bytes()
        inputs = ("--index", raw, "--corpus", corpus, "--questions", questions)
        assert run("make-train", *inputs, "--expansions",
                   workdir / "expansions.jsonl",
                   "--out", tmp_path / "train.jsonl") == 0
        assert run("retrieve", *inputs, "--strategy", "bm25",
                   "--out", tmp_path / "raw.trec") == 0
        assert run_tags(tmp_path / "raw.trec") == {"bm25"}
        assert evaluates(tmp_path / "raw.trec", questions, corpus)

    def test_stub_sampler(self, workdir, models, tmp_path):
        """Without ``--expansions``, make-train labels the stub sampler's
        candidates for ``--n-samples`` and ``--seed``, and retrieve samples
        the same ones: its run equals the run over those candidates read
        from a file.  Another seed samples other candidates."""
        corpus = workdir / "corpus.jsonl"
        questions = workdir / "questions.jsonl"
        store, index = load_corpus(corpus), Index.load(models / "idx.bin")
        qas = load_questions(questions)
        stub, other = ({qa.qid: expansion.sample_expansions_stub(
            qa.question, 8, seed, index, store) for qa in qas}
            for seed in (3, 4))
        assert stub != other
        write_expansions(stub, tmp_path / "stub.jsonl")
        inputs = ("--index", models / "idx.bin", "--corpus", corpus)
        sampled = ("--n-samples", 8, "--seed", 3)
        assert run("make-train", *inputs, "--questions", questions, *sampled,
                   "--out", tmp_path / "train.jsonl") == 0
        rows = [json.loads(line) for line in
                (tmp_path / "train.jsonl").read_text().splitlines()]
        assert {row["qid"]: [ExpansionCandidate(**c) for c in
                             row["candidates"]] for row in rows} == {
            qid: cs.candidates for qid, cs in stub.items()}
        assert run("train", "--train", tmp_path / "train.jsonl", *inputs,
                   "--variant", "RD", "--out", tmp_path / "rd.json") == 0
        runs = [retrieve(workdir, models, tmp_path / f"{name}.trec",
                         "--strategy", "ear_rd", "--model",
                         tmp_path / "rd.json", *source)
                for name, source in (("sampled", sampled), ("read", (
                    "--expansions", tmp_path / "stub.jsonl")))]
        assert runs[0].read_bytes() == runs[1].read_bytes()
        assert run_tags(runs[0]) == {"ear_rd"}
        assert evaluates(runs[0], questions, corpus)

    def test_compatibility_forms(self, tmp_path):
        """With ASCII questions, bm25 ranks every answer passage first,
        and its run equals, byte for byte, the run over the same corpus
        with each text replaced by its normalized tokens, which the
        tokenizer's ASCII path reads."""
        questions = tmp_path / "questions.jsonl"
        write_questions(COMPATIBILITY_QUESTIONS, questions)
        for name, fold in (("forms", str),
                           ("folded", lambda t: " ".join(normalize(t)))):
            corpus = tmp_path / f"{name}.jsonl"
            write_corpus([Passage(pid, "", fold(text)) for pid, text in
                          COMPATIBILITY_FORMS.items()], corpus)
            assert run("index", "--corpus", corpus,
                       "--out", tmp_path / f"{name}.bin") == 0
            assert run("retrieve", "--index", tmp_path / f"{name}.bin",
                       "--corpus", corpus, "--questions", questions,
                       "--strategy", "bm25",
                       "--out", tmp_path / f"{name}.trec") == 0
        assert (tmp_path / "forms.trec").read_bytes() == \
            (tmp_path / "folded.trec").read_bytes()
        assert run("eval", "--run", tmp_path / "forms.trec",
                   "--questions", questions,
                   "--corpus", tmp_path / "forms.jsonl",
                   "--out", tmp_path / "eval.json") == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["accuracies"]["1"] == 1.0


class TestTrainEpochs:
    def test_epochs_flag_sets_the_epoch_count(self, workdir, models,
                                              tmp_path):
        """``train --epochs 1`` writes the model that one epoch of
        ``reranker.train`` gives, not the default three-epoch RD model."""
        out = tmp_path / "rd1.json"
        assert run("train", "--train", models / "train.jsonl",
                   "--index", models / "idx.bin",
                   "--corpus", workdir / "corpus.jsonl", "--variant", "RD",
                   "--epochs", 1, "--out", out) == 0
        store = load_corpus(workdir / "corpus.jsonl")
        expected = tmp_path / "expected.json"
        reranker.train(
            expansion.load_training_set(models / "train.jsonl"),
            reranker.TrainConfig(epochs=1), "RD",
            reranker.Featurizer(Index.load(models / "idx.bin"), store),
        ).save(expected)
        assert out.read_bytes() == expected.read_bytes()
        default = json.loads((models / "RD.json").read_text())
        assert json.loads(out.read_text())["weights"] != default["weights"]


class TestTrainPrDeterminism:
    def test_bytes_independent_of_hash_seed(self, tmp_path):
        """String hashing is salted per process; the passage scorer must not
        depend on it."""
        fx = make_planted(200, seed=0)
        write_corpus(fx.passages, tmp_path / "corpus.jsonl")
        write_questions(fx.questions, tmp_path / "questions.jsonl")
        assert run("index", "--corpus", tmp_path / "corpus.jsonl",
                   "--out", tmp_path / "idx.bin") == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"pr-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "expandrank.cli", "train-pr",
                 "--index", str(tmp_path / "idx.bin"),
                 "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--questions", str(tmp_path / "questions.jsonl"),
                 "--out", str(out)],
                env=env, check=True, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


SUBCOMMANDS = ("index", "make-train", "train", "train-pr", "retrieve", "eval",
               "bench", "ablate", "fuse")


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in SUBCOMMANDS:
            # each subcommand gets its own line: its name, then its summary
            assert re.search(rf"^ +{re.escape(sub)} +\S", out, re.M), sub

    def test_every_subcommand_help(self, capsys):
        for sub in SUBCOMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0

    def test_config_echo(self, workdir, capsys):
        run("index", "--corpus", workdir / "corpus.jsonl",
            "--out", workdir / "idx.bin")
        assert "config:" in capsys.readouterr().out
