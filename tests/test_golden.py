"""Golden outputs: every CLI stage on two fixed workloads, against stored
results.

The stages are ``index``, ``make-train``, ``train`` RI and RD, ``train-pr``,
``retrieve`` for all 7 strategy variants, ``eval`` of each run, and
``ablate`` for ``oracle`` and ``ear_rd``.  Run files, ``eval`` reports and
``ablate`` tables print 6 decimals, so they are compared by SHA-256 against
``DIGESTS``.  ``train.jsonl`` and the model files hold full-precision
floats, whose last bit may differ between CPUs (numpy's SIMD ``log``), so
they are compared field by field, floats at a relative 1e-12, against the
copies in ``tests/golden/<workload>/``.

A change that alters these outputs on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py``, pastes the printed digests
into ``DIGESTS``, and says which outputs changed and why.
"""

import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest

from expandrank.cli import main
from expandrank.corpus import QAExample
from expandrank.expansion import CandidateSet, ExpansionCandidate
from expandrank.pipeline import STRATEGIES
from expandrank.synth import (make_planted, make_random_corpus, write_corpus,
                              write_expansions, write_questions)

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

# variant -> (strategy, expansion model, with the passage reranker): every
# strategy in ``STRATEGIES`` with the model it runs, then ``ear_rd`` with PR
VARIANTS = {kind: (kind, needs.scorer, False)
            for kind, needs in STRATEGIES.items()}
VARIANTS["ear_rd_pr"] = ("ear_rd", "RD", True)
# strategy -> its expansion model, for the ``ablate`` stages
ABLATIONS = {"oracle": None, "ear_rd": "RD"}
ABLATE_NS = "1,2,5"
FLOAT_FILES = ("train.jsonl", "RI.json", "RD.json", "pr.json")

ZIPF_DOCS, ZIPF_DOC_LEN = 1500, 40
ZIPF_QUESTIONS, ZIPF_CANDIDATES = 40, 20


def _planted():
    fx = make_planted(60, seed=0)
    return fx.passages, fx.questions, fx.candidates


def _zipf():
    """Questions drawn from random Zipf passages, each with graded
    candidates: candidate j takes a share j/(n-1) of its words from the
    answer passage, in shuffled order."""
    passages = make_random_corpus(ZIPF_DOCS, seed=3, doc_len=ZIPF_DOC_LEN)
    rng = random.Random(3)
    vocab = sorted({t for p in passages for t in p.text.split()})
    questions, candidates = [], {}
    for i in range(ZIPF_QUESTIONS):
        tokens = rng.choice(passages).text.split()
        qid = f"z{i:03d}"
        start = rng.randrange(len(tokens) - 2)
        questions.append(QAExample(
            qid=qid, question=" ".join(rng.choices(tokens, k=4)),
            answers=(" ".join(tokens[start:start + 3]),)))
        shares = [j / (ZIPF_CANDIDATES - 1) for j in range(ZIPF_CANDIDATES)]
        rng.shuffle(shares)
        candidates[qid] = CandidateSet(qid=qid, candidates=[
            ExpansionCandidate(
                text=" ".join(rng.choice(tokens) if rng.random() < share
                              else rng.choice(vocab)
                              for _ in range(3 + rng.randrange(4))),
                generator_tag="external")
            for share in shares])
    return passages, questions, candidates


WORKLOADS = {"planted": _planted, "zipf": _zipf}

DIGESTS = {
    "planted": {
        "bm25.trec":
            "5ad5e7186d08ab5b041160388f40ace12596ae26d74867a76cdf218c6ddd4613",
        "bm25.eval.json":
            "c7fde413c3defb8726f72aa4bf04ce06fc7816b6c22c8bfae56d7473e6a75643",
        "greedy.trec":
            "b9031ed8945b780afaaae563ac3846e5fba49fd613aabd0a8a9127c717d70e0e",
        "greedy.eval.json":
            "a3a22f64252eb2b0c8d22dd8829708effe904de7881409276944c56e1f5b967f",
        "concat.trec":
            "1f9430de509920073e1711ea39b8b361367da84e6ef9674c7c6b0aaabd7b7648",
        "concat.eval.json":
            "1dd7a0917be22ad13678a241952891582c02ef30ea525ea3602ee3e1a02002b0",
        "oracle.trec":
            "3b83ab68ff69ba6389351ef3d229f6f368b7af3ae04066be2a9bfa9d518343b8",
        "oracle.eval.json":
            "795bc89cfd2a5ce802542e35907b248b54c4b7298bc224e073583783221f1813",
        "ear_ri.trec":
            "d2a8a93a8481eb61c745b0d03b908c6943f4ff14395aca55829d6d4d73dc59ef",
        "ear_ri.eval.json":
            "44cfbb449597f095a70d10bd43c1f9f1227bbc840bb7c02fc3831432be952112",
        "ear_rd.trec":
            "5cfd659892220e7dacf25871ee0a7dcf7dd76020ef54cca999478c53e68076e6",
        "ear_rd.eval.json":
            "62f262889eeb6a11a546f341c56b2ab4c27789c148c10b75f9a7068f94c4a831",
        "ear_rd_pr.trec":
            "9d61ee1df19b95c5e69c4dacdf8045694fb367b431d4950cfa84054613f4a8fe",
        "ear_rd_pr.eval.json":
            "0b163e59f13c0df992e5100286e81b6dacec8fb6ad7ff894b103d21fbd7dd619",
        "oracle.ablate.csv":
            "1366ed08d24eac52196cb5862352ff7ab4e68ef834b4ffe34fb3a217a665a6ff",
        "ear_rd.ablate.csv":
            "1366ed08d24eac52196cb5862352ff7ab4e68ef834b4ffe34fb3a217a665a6ff",
    },
    "zipf": {
        "bm25.trec":
            "14e3701643391c998001d8c2e14290ea4966d54af54bd71634255a9ba846237e",
        "bm25.eval.json":
            "e12267102e5900a64516d04bec46a30923585a34ba4b669dda3882c0b9aa9f13",
        "greedy.trec":
            "71147e616e7a5f15a8c0349e505e89c48441938cb1c6454582e26abc72476e07",
        "greedy.eval.json":
            "f157b02b22d104c9e65d524997359dfd2777f8da2c069a13bd814f065e046ada",
        "concat.trec":
            "0e8673e68ec0b38322ef745e29d914a69d8cabe4082e6b558d935f806c16c5f4",
        "concat.eval.json":
            "1f1d8380350dfe15b35046a095503e2a46d21155fe7e2c6f7893b2fcfe453bc4",
        "oracle.trec":
            "caf0290c38d8f4c417dfce99ec97bc70e83da6133289da0b3979621996b081b0",
        "oracle.eval.json":
            "63d17e3e5e8d948c5a1ac7e92afefe1993538c4de3819acdb4ccb282c592a9cd",
        "ear_ri.trec":
            "ccf87bf635a05a978257bf78bfa00c48dfd7b4c1f4fb7c8dadeee9c187051c8d",
        "ear_ri.eval.json":
            "99c17bf8f47f098c2340b59733b5e6ca4215d78ced644c591905645c312dc7fb",
        "ear_rd.trec":
            "039bc49933d7b13e4ace4fb7f6e61d26e34b591465aa313cc9adf28b8aeb2a7d",
        "ear_rd.eval.json":
            "fddc81036754895a8e603368f27ae1703408e2a86ecb4436514e0d853d180d72",
        "ear_rd_pr.trec":
            "413ebe7975ba2a66eab80491a2141f7206a9681b8acc6389f10f8a89a180b17e",
        "ear_rd_pr.eval.json":
            "d4ce1dfc85616ae84cbef3858f074ab11ffcfd28ac764766c6ee452c505eead7",
        "oracle.ablate.csv":
            "00db5c3a65e0ed5c1a84add4ad612036f5644ba1575bac06388a227caafdb6b0",
        "ear_rd.ablate.csv":
            "daf2b21aeaaa668e3cf8bf1110b4408c2e628d1672346775a12cc290c28357a3",
    },
}


def _cli(*argv) -> None:
    rc = main([str(a) for a in argv])
    assert rc == 0, f"{argv[0]} exited {rc}"


def run_pipeline(workload: str, root: Path) -> None:
    """Write the workload's inputs into ``root`` and run every CLI stage
    there."""
    passages, questions, candidates = WORKLOADS[workload]()
    corpus, qs, exp = root / "corpus.jsonl", root / "q.jsonl", root / "x.jsonl"
    write_corpus(passages, corpus)
    write_questions(questions, qs)
    write_expansions(candidates, exp)
    idx = root / "idx.bin"
    inputs = ("--index", idx, "--corpus", corpus)
    _cli("index", "--corpus", corpus, "--out", idx)
    _cli("make-train", *inputs, "--questions", qs, "--expansions", exp,
         "--out", root / "train.jsonl")
    for variant in ("RI", "RD"):
        _cli("train", "--train", root / "train.jsonl", *inputs,
             "--variant", variant, "--out", root / f"{variant}.json")
    _cli("train-pr", *inputs, "--questions", qs, "--out", root / "pr.json")
    for name, (kind, model, with_pr) in VARIANTS.items():
        argv = [*inputs, "--questions", qs, "--expansions", exp,
                "--strategy", kind, "--out", root / f"{name}.trec"]
        if model:
            argv += ["--model", root / f"{model}.json"]
        if with_pr:
            argv += ["--pr-model", root / "pr.json"]
        _cli("retrieve", *argv)
        _cli("eval", "--run", root / f"{name}.trec", "--questions", qs,
             "--corpus", corpus, "--out", root / f"{name}.eval.json")
    for kind, model in ABLATIONS.items():
        argv = [*inputs, "--questions", qs, "--expansions", exp,
                "--strategy", kind, "--ns", ABLATE_NS,
                "--out", root / f"{kind}.ablate.csv"]
        if model:
            argv += ["--model", root / f"{model}.json"]
        _cli("ablate", *argv)


def digests(root: Path) -> dict[str, str]:
    paths = [root / f"{name}{ext}" for name in VARIANTS
             for ext in (".trec", ".eval.json")]
    paths += [root / f"{kind}.ablate.csv" for kind in ABLATIONS]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths}


def read_rows(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def assert_close(actual, expected, where: str) -> None:
    """Equal structure and values; floats agree to a relative ``REL_TOL``."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, where


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outputs(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    run_pipeline(request.param, root)
    return request.param, root


def test_run_and_eval_digests(outputs):
    workload, root = outputs
    assert digests(root) == DIGESTS[workload]


@pytest.mark.parametrize("name", FLOAT_FILES)
def test_float_outputs(outputs, name):
    workload, root = outputs
    assert_close(read_rows(root / name), read_rows(GOLDEN / workload / name),
                 f"{workload}/{name}")


if __name__ == "__main__":
    # Regenerate the stored float outputs and print the digests.
    for workload in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(workload, Path(tmp))
            (GOLDEN / workload).mkdir(parents=True, exist_ok=True)
            for name in FLOAT_FILES:
                (GOLDEN / workload / name).write_bytes(
                    (Path(tmp) / name).read_bytes())
            print(f"{workload!r}: {json.dumps(digests(Path(tmp)), indent=4)},",
                  file=sys.stderr)
