import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from expandrank.cli import main
from expandrank.synth import (make_planted, write_corpus, write_expansions,
                              write_questions)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Planted dataset written out as the CLI's file-based inputs."""
    root = tmp_path_factory.mktemp("cli")
    fx = make_planted(40, seed=0)
    write_corpus(fx.passages, root / "corpus.jsonl")
    write_questions(fx.questions, root / "questions.jsonl")
    write_expansions(fx.candidates, root / "expansions.jsonl")
    return root


def run(*argv):
    return main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    def test_bad_sentinel_exit_2(self, workdir):
        rc = run("make-train", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--out", workdir / "t.jsonl",
                 "--max-rank", 100, "--k-retrieve", 100)
        assert rc == 2

    def test_too_few_questions_exit_2(self, workdir):
        few = workdir / "few.jsonl"
        lines = (workdir / "questions.jsonl").read_text().splitlines()[:3]
        few.write_text("\n".join(lines) + "\n")
        rc = run("make-train", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", few, "--out", workdir / "t.jsonl",
                 "--folds", 5)
        assert rc == 2

    def test_output_schema_and_determinism(self, workdir, capsys):
        for name in ("train_a.jsonl", "train_b.jsonl"):
            rc = run("make-train", "--index", workdir / "idx.bin",
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


class TestPipelineCmds:
    def test_full_pipeline(self, workdir, capsys):
        rc = run("train", "--train", workdir / "train_a.jsonl",
                 "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--variant", "RD", "--out", workdir / "rd.json")
        assert rc == 0
        rc = run("retrieve", "--index", workdir / "idx.bin",
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

    def test_ear_without_model_exit_2(self, workdir, capsys):
        rc = run("retrieve", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--strategy", "ear_ri",
                 "--out", workdir / "x.trec")
        assert rc == 2

    def test_oracle_without_answers_exit_2(self, workdir):
        bare = workdir / "bare.jsonl"
        rows = [json.loads(l) for l in
                (workdir / "questions.jsonl").read_text().splitlines()]
        with open(bare, "w") as fh:
            for row in rows:
                del row["answers"]
                fh.write(json.dumps(row) + "\n")
        rc = run("retrieve", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", bare, "--strategy", "oracle",
                 "--expansions", workdir / "expansions.jsonl",
                 "--out", workdir / "x.trec")
        assert rc == 2

    def test_ablate_csv(self, workdir, capsys):
        rc = run("ablate", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", workdir / "expansions.jsonl",
                 "--strategy", "oracle", "--ns", "1,5,10",
                 "--out", workdir / "ablate.csv")
        assert rc == 0
        assert (workdir / "ablate.csv").read_text().startswith("N,top1")

    def test_fuse_cmd(self, workdir):
        run("retrieve", "--index", workdir / "idx.bin",
            "--corpus", workdir / "corpus.jsonl",
            "--questions", workdir / "questions.jsonl",
            "--strategy", "bm25", "--out", workdir / "bm25.trec")
        rc = run("fuse", "--runs", workdir / "rd.trec", workdir / "bm25.trec",
                 "--out", workdir / "fused.trec", "--k", 50)
        assert rc == 0
        assert (workdir / "fused.trec").exists()

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

    def test_damaged_model_exit_1(self, workdir, capsys):
        rc = run("train", "--train", workdir / "train_a.jsonl",
                 "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--variant", "RI", "--out", workdir / "ri.json")
        assert rc == 0
        doc = json.loads((workdir / "ri.json").read_text())
        doc["weights"] = doc["weights"][:5]
        bad = workdir / "ri_short.json"
        bad.write_text(json.dumps(doc))
        rc = run("retrieve", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", workdir / "expansions.jsonl",
                 "--strategy", "ear_ri", "--model", bad,
                 "--out", workdir / "short.trec")
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "weights" in err
        assert not (workdir / "short.trec").exists()

    def test_failed_questions_exit_1(self, workdir, capsys):
        rows = (workdir / "expansions.jsonl").read_text().splitlines()
        dropped = json.loads(rows[0])["qid"]
        partial = workdir / "partial_expansions.jsonl"
        partial.write_text("".join(
            row + "\n" for row in rows if json.loads(row)["qid"] != dropped))
        rc = run("retrieve", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--expansions", partial, "--strategy", "greedy",
                 "--out", workdir / "partial.trec")
        assert rc == 1
        assert "1/40 questions failed" in capsys.readouterr().err
        qids = {line.split()[0] for line in
                (workdir / "partial.trec").read_text().splitlines()}
        assert len(qids) == 39 and dropped not in qids

    def test_bench_cmd(self, workdir, capsys):
        rc = run("bench", "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--strategy", "bm25", "--repetitions", 1)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads("\n".join(lines[lines.index("{"):]))
        assert payload["queries_measured"] == 40

    def test_train_pr_cmd(self, workdir):
        rc = run("train-pr", "--index", workdir / "idx.bin",
                 "--corpus", workdir / "corpus.jsonl",
                 "--questions", workdir / "questions.jsonl",
                 "--out", workdir / "pr.json")
        assert rc == 0


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
