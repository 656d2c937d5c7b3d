"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n>: PASS|FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import functools
import hashlib
import json
import time

import numpy as np
import pytest

from expandrank.corpus import PassageStore
from expandrank.evalbench import (bench_latency, min_answer_rank, read_run,
                                  topk_accuracy, write_run)
from expandrank.index import Bm25Params, RankedList, build_index
from expandrank.pipeline import StrategySpec, fuse, run_dataset, run_strategy
from expandrank.reranker import rank_loss
from expandrank.synth import (make_planted, make_random_corpus,
                              make_random_queries, write_corpus,
                              write_questions, write_expansions)

from oracles import brute_search

SUITE_T0 = time.perf_counter()


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"\nACCEPTANCE {num}: PASS - {desc}")
        return wrapper
    return deco


def top5(runs, questions, store):
    return topk_accuracy(runs, questions, store, ks=(5,)).accuracies[5]


def labels_of(ranks):
    return list(ranks)


@criterion(1, "BM25 matches brute-force oracle on random corpora")
def test_c1_bm25_oracle_equivalence():
    t0 = time.perf_counter()
    params = Bm25Params()
    for n_docs, n_queries, seed in ((50, 20, 1), (300, 40, 2), (1000, 100, 3)):
        store = PassageStore(make_random_corpus(n_docs, seed=seed))
        index = build_index(store, params)
        for query in make_random_queries(n_queries, list(store), seed=seed):
            got = index.search(query, 100).entries
            want = brute_search(store, params, query, 100)
            assert [p for p, _ in got] == [p for p, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert abs(gs - ws) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


@criterion(2, "rank_loss trivial cases and finite-difference gradients")
def test_c2_rank_loss():
    # two candidates, tied scores: one active pair pays its full margin
    loss, _ = rank_loss([0.0, 0.0], labels_of([1, 3]), alpha=0.5)
    assert loss == pytest.approx((3 - 1) * 0.5)
    # margin satisfied with room to spare: exactly zero loss and gradient
    loss, grad = rank_loss([-2.0, 0.0], labels_of([1, 3]), alpha=0.5)
    assert loss == 0.0 and np.all(grad == 0)
    # equal ranks form no pairs
    loss, grad = rank_loss([5.0, -1.0, 2.0], labels_of([7, 7, 7]), alpha=0.5)
    assert loss == 0.0 and np.all(grad == 0)

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 51))
        scores = rng.normal(scale=2.0, size=n)
        labels = labels_of(rng.integers(1, 102, size=n).tolist())
        alpha = 0.01
        if any(abs(scores[i] - scores[j] + (labels[j] - labels[i]) * alpha)
               < 1e-4
               for i in range(n) for j in range(n) if labels[i] < labels[j]):
            continue  # resample draws landing on a hinge kink
        checked += 1
        _, grad = rank_loss(scores, labels, alpha)
        h = 1e-5
        fd = np.zeros(n)
        for i in range(n):
            up, down = scores.copy(), scores.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (rank_loss(up, labels, alpha)[0]
                     - rank_loss(down, labels, alpha)[0]) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)) < 1e-4


@criterion(3, "oracle beats greedy by >= 20 pts; concat <= greedy + 5 pts")
def test_c3_oracle_gap(planted, planted_store, planted_index):
    t0 = time.perf_counter()
    questions = planted.questions
    accs = {}
    for kind in ("greedy", "oracle", "concat"):
        runs = run_dataset(StrategySpec(kind=kind),
                           planted_index, planted_store, questions,
                           planted.candidates)
        accs[kind] = top5(runs, questions, planted_store)
    assert accs["oracle"] - accs["greedy"] >= 0.20
    assert accs["concat"] <= accs["greedy"] + 0.05
    assert time.perf_counter() - t0 < 60.0


@criterion(4, "RD >= RI >= greedy; RD - greedy >= 10 pts; oracle dominates RD")
def test_c4_ordering(planted, planted_store, planted_index, planted_split,
                     ri_model, rd_model, featurizer):
    _, qa_test = planted_split
    runs = {}
    for kind, model in (("greedy", None), ("ear_ri", ri_model),
                        ("ear_rd", rd_model), ("oracle", None)):
        runs[kind] = run_dataset(
            StrategySpec(kind=kind), planted_index,
            planted_store, qa_test, planted.candidates, model,
            featurizer if model else None,
        )
    accs = {k: top5(r, qa_test, planted_store) for k, r in runs.items()}
    assert accs["ear_rd"] >= accs["ear_ri"] >= accs["greedy"]
    assert accs["ear_rd"] - accs["greedy"] >= 0.10
    for qa in qa_test:  # per-question dominance, zero violations
        o = min_answer_rank(runs["oracle"][qa.qid], qa.answers,
                            planted_store) or 999
        rd = min_answer_rank(runs["ear_rd"][qa.qid], qa.answers,
                             planted_store) or 999
        assert o <= rd


@criterion(5, "oracle monotone in candidate cap N; EAR-RD N=50 >= N=5")
def test_c5_candidate_size(planted, planted_store, planted_index,
                           planted_split, rd_model, featurizer):
    _, qa_test = planted_split
    ns = (1, 5, 10, 20, 30, 50)

    def accuracy(kind, n, model=None, feat=None):
        spec = StrategySpec(kind=kind, cap_n=n)
        runs = run_dataset(spec, planted_index, planted_store, qa_test,
                           planted.candidates, model, feat)
        return top5(runs, qa_test, planted_store)

    oracle = [accuracy("oracle", n) for n in ns]
    assert oracle == sorted(oracle)  # zero monotonicity violations
    rd = {n: accuracy("ear_rd", n, rd_model, featurizer) for n in (5, 50)}
    assert rd[50] >= rd[5]


@criterion(6, "depth-100 PR keeps top-100 accuracy; EAR-RD+PR >= both parents")
def test_c6_passage_rerank(planted, planted_store, planted_index,
                           planted_split, rd_model, featurizer, pr_scorer):
    _, qa_test = planted_split

    def run_all(kind, model=None, feat=None, pr=None):
        return run_dataset(StrategySpec(kind=kind, pr_depth=100),
                           planted_index, planted_store, qa_test,
                           planted.candidates, model, feat, pr)

    plain = run_all("ear_rd", rd_model, featurizer)
    with_pr = run_all("ear_rd", rd_model, featurizer, pr_scorer)
    k100 = lambda runs: topk_accuracy(runs, qa_test, planted_store,
                                      ks=(100,)).accuracies[100]
    assert k100(with_pr) == k100(plain)  # permutation of the same top-100

    greedy_pr = run_all("greedy", pr=pr_scorer)
    assert top5(with_pr, qa_test, planted_store) >= max(
        top5(plain, qa_test, planted_store),
        top5(greedy_pr, qa_test, planted_store),
    )


@criterion(7, "round-robin fusion pattern, duplicate skip, TREC round trip")
def test_c7_fusion(tmp_path):
    def rl(pids):
        n = len(pids)
        return RankedList(pids, [float(n - i) for i in range(n)])

    s = rl(["s1", "s2", "s3"])
    a = rl(["a1", "a2", "a3"])
    t = rl(["t1", "t2", "t3"])
    assert fuse([s, a, t], k=9).pids() == \
        ["s1", "a1", "t1", "s2", "a2", "t2", "s3", "a3", "t3"]
    # forced duplicate: the answer list's first entry repeats s1, so the
    # answer list forfeits that round and rejoins on the next one
    out = fuse([rl(["s1", "s2"]), rl(["s1", "a2"]), rl(["t1", "t2"])], k=6)
    assert out.pids() == ["s1", "t1", "s2", "a2", "t2"]

    runs = {"q": fuse([s, a, t], k=9)}
    path = tmp_path / "fused.trec"
    write_run(runs, path)
    loaded = read_run(path)
    assert loaded["q"].pids() == runs["q"].pids()
    assert [round(sc, 6) for _, sc in loaded["q"].entries] == \
        [round(sc, 6) for _, sc in runs["q"].entries]


@criterion(8, "full pipeline is byte-identical across two seeded runs")
def test_c8_determinism(tmp_path):
    from expandrank.cli import main

    fx = make_planted(30, seed=0)
    data = tmp_path / "data"
    data.mkdir()
    write_corpus(fx.passages, data / "corpus.jsonl")
    write_questions(fx.questions, data / "questions.jsonl")
    write_expansions(fx.candidates, data / "expansions.jsonl")

    digests = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        out.mkdir()
        steps = [
            ["index", "--corpus", data / "corpus.jsonl",
             "--out", out / "idx.bin"],
            ["make-train", "--index", out / "idx.bin",
             "--corpus", data / "corpus.jsonl",
             "--questions", data / "questions.jsonl",
             "--expansions", data / "expansions.jsonl",
             "--out", out / "train.jsonl", "--seed", "0"],
            ["train", "--train", out / "train.jsonl",
             "--index", out / "idx.bin", "--corpus", data / "corpus.jsonl",
             "--variant", "RD", "--out", out / "rd.json", "--seed", "0"],
            ["retrieve", "--index", out / "idx.bin",
             "--corpus", data / "corpus.jsonl",
             "--questions", data / "questions.jsonl",
             "--expansions", data / "expansions.jsonl",
             "--strategy", "ear_rd", "--model", out / "rd.json",
             "--out", out / "run.trec"],
            ["eval", "--run", out / "run.trec",
             "--questions", data / "questions.jsonl",
             "--corpus", data / "corpus.jsonl",
             "--out", out / "eval.json"],
        ]
        for argv in steps:
            assert main([str(x) for x in argv]) == 0
        digests.append({
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("idx.bin", "train.jsonl", "rd.json", "run.trec",
                         "eval.json")
        })
    assert digests[0] == digests[1]


@criterion(9, "bench reports 4 stages; RD rerank > RI; 10k index < 10x corpus")
def test_c9_latency(planted, planted_store, ri_model, rd_model, tmp_path):
    questions = planted.questions[:8]
    reports = {}
    for kind, model in (("ear_ri", ri_model), ("ear_rd", rd_model)):
        reports[kind] = bench_latency(
            planted_store, Bm25Params(), StrategySpec(kind=kind),
            questions, model=model, n_samples=10,
        )
    for rep in reports.values():
        d = rep.as_dict()
        for stage in ("index_build_s", "query_expand_s", "query_rerank_s",
                      "retrieval_s"):
            assert stage in d
    assert reports["ear_rd"].query_rerank_s > reports["ear_ri"].query_rerank_s

    passages = make_random_corpus(10_000, seed=4)
    corpus_path = tmp_path / "big.jsonl"
    write_corpus(passages, corpus_path)
    index = build_index(PassageStore(passages), Bm25Params())
    index_path = tmp_path / "big.idx"
    index.save(index_path)
    assert index_path.stat().st_size < 10 * corpus_path.stat().st_size


@criterion(10, "acceptance suite wall-clock under 5 minutes")
def test_c10_suite_runtime():
    elapsed = time.perf_counter() - SUITE_T0
    print(f"\nacceptance suite elapsed: {elapsed:.1f}s")
    assert elapsed < 300.0
