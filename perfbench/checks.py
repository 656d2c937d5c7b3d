"""Correctness checks on a run's outputs.  None of them is timed.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from expandrank.evalbench import min_answer_rank

# brute-force reference from the repository's tests; independent of the index
from oracles import brute_search

K = 100  # the CLI's default --k, used by every strategy
BRUTE_TOLERANCE = 1e-9  # acceptance criterion c1
BRUTE_QUESTIONS = 10


def ranked_lists(runs: dict[str, dict]) -> list[str]:
    """Every returned list is well-formed and holds at most K entries."""
    problems = []
    for variant, by_qid in runs.items():
        for qid, rl in by_qid.items():
            try:
                rl.validate()
            except ValueError as exc:
                problems.append(f"{variant} {qid}: {exc}")
            if len(rl) > K:
                problems.append(f"{variant} {qid}: {len(rl)} entries > {K}")
    return problems


def brute_agreement(idx, store, questions, candidates) -> list[str]:
    """``Index.search`` against the brute-force BM25 oracle on a fixed sample:
    the first test questions, bare and expanded with their first candidate."""
    queries = []
    for qa in questions[:BRUTE_QUESTIONS]:
        queries.append(qa.question)
        cs = candidates.get(qa.qid)
        if cs and cs.candidates:
            queries.append(f"{qa.question} {cs.candidates[0].text}")
    problems = []
    for query in queries:
        got = idx.search(query, K).entries
        want = brute_search(store, idx.params, query, K)
        if [p for p, _ in got] != [p for p, _ in want]:
            problems.append(f"ranking differs from brute force for {query!r}")
        elif any(abs(g - w) > BRUTE_TOLERANCE
                 for (_, g), (_, w) in zip(got, want)):
            problems.append(f"scores differ from brute force for {query!r}")
    return problems


def planted_orderings(runs, accuracy, questions, store) -> list[str]:
    """The orderings the planted fixture is built to produce."""
    problems = []
    top5 = {v: accuracy[v][5] for v in ("oracle", "ear_rd", "ear_ri",
                                         "greedy")}
    if not (top5["oracle"] >= top5["ear_rd"] >= top5["ear_ri"]
            >= top5["greedy"]):
        problems.append(f"top-5 accuracy not oracle >= ear_rd >= ear_ri >= "
                        f"greedy: {top5}")
    missing = K + 1
    for qa in questions:
        oracle, rd, pr = (runs[v].get(qa.qid)
                          for v in ("oracle", "ear_rd", "ear_rd_pr"))
        if oracle is None or rd is None or pr is None:
            problems.append(f"{qa.qid}: no list from oracle, ear_rd or "
                            f"ear_rd_pr")
            continue
        o = min_answer_rank(oracle, qa.answers, store) or missing
        r = min_answer_rank(rd, qa.answers, store) or missing
        if o > r:
            problems.append(f"{qa.qid}: oracle answer rank {o} > ear_rd {r}")
        if set(pr.pids()) != set(rd.pids()):
            problems.append(f"{qa.qid}: ear_rd_pr top-{K} set differs from "
                            f"ear_rd")
    return problems
