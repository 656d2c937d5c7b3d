"""Top-k accuracy metrics, TREC run file I/O, ablations, latency benchmarks."""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
import time
from array import array
from dataclasses import asdict, dataclass, replace

from .corpus import AnswerMatcher, PassageStore, open_utf8
from .expansion import sample_expansions_stub
from .index import Bm25Params, Index, RankedList, build_index
from .pipeline import (StrategySpec, check_strategy, choose, retrieve,
                       run_strategy)
from .reranker import Featurizer

DEFAULT_KS = (1, 5, 20, 100)


class RunFormatError(ValueError):
    pass


@dataclass
class AccuracyReport:
    accuracies: dict[int, float]
    n_questions: int
    tag: str = "run"

    def __post_init__(self):
        ks = sorted(self.accuracies)
        values = [self.accuracies[k] for k in ks]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("accuracies must lie in [0, 1]")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("accuracy must be non-decreasing in k")

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "n_questions": self.n_questions,
            "accuracies": {str(k): v for k, v in sorted(self.accuracies.items())},
        }

    def format_text(self) -> str:
        ks = sorted(self.accuracies)
        head = "  ".join(f"top-{k:<4d}" for k in ks)
        row = "  ".join(f"{self.accuracies[k]:<8.4f}" for k in ks)
        return f"{self.tag} ({self.n_questions} questions)\n{head}\n{row}"


@dataclass
class LatencyReport:
    index_build_s: float
    query_expand_s: float
    query_rerank_s: float
    retrieval_s: float
    index_bytes: int
    queries_measured: int

    def as_dict(self) -> dict:
        return asdict(self)


def min_answer_rank(rl: RankedList, answers, store: PassageStore) -> int | None:
    """1-based rank of the first answer-containing passage, or None."""
    return AnswerMatcher(answers).first_rank(rl.pids(), store)


def topk_accuracy(runs: dict[str, RankedList], qa_list, store: PassageStore,
                  ks=DEFAULT_KS, tag: str = "run") -> AccuracyReport:
    if len(set(ks)) != len(ks):
        raise ValueError(f"ks must be distinct, got {list(ks)}")
    by_qid = {qa.qid: qa for qa in qa_list}
    unknown = set(runs) - set(by_qid)
    if unknown:
        raise ValueError(f"run qids not in QA set: {sorted(unknown)[:5]}")
    hits = {k: 0 for k in ks}
    for qa in qa_list:
        matcher = AnswerMatcher(qa.answers, qa.qid)
        rl = runs.get(qa.qid)
        if rl is None:
            continue  # missing question counts as a miss at every k
        rank = matcher.first_rank(rl.pids(), store)
        if rank is None:
            continue
        for k in ks:
            if rank <= k:
                hits[k] += 1
    n = len(qa_list)
    acc = {k: (hits[k] / n if n else 0.0) for k in ks}
    return AccuracyReport(accuracies=acc, n_questions=n, tag=tag)


def ablate_candidate_size(spec: StrategySpec, index: Index, store: PassageStore,
                          qa_list, candidates_map, ns, model=None,
                          featurizer=None, ks=DEFAULT_KS,
                          ) -> dict[int, AccuracyReport]:
    """One evaluation per candidate cap N; prefixes nest since the underlying
    candidate sets are shared."""
    if list(ns) != sorted(ns):
        raise ValueError("Ns must be sorted ascending")
    out = {}
    for n in ns:
        sub = replace(spec, cap_n=n)
        runs = {}
        for qa in qa_list:
            runs[qa.qid] = run_strategy(sub, index, store, qa,
                                        candidates_map.get(qa.qid), model,
                                        featurizer)
        out[n] = topk_accuracy(runs, qa_list, store, ks=ks,
                               tag=f"{spec.kind}@N={n}")
    return out


def bench_latency(store: PassageStore, params: Bm25Params, spec: StrategySpec,
                  qa_list, repetitions: int = 1, model=None,
                  n_samples: int = 50, stub_seed: int = 0,
                  ) -> LatencyReport:
    """Batch-size-1 per-query stage timings, plus index build time and size.

    Expand is sampling ``n_samples`` stub candidates, rerank is ``choose``
    (both 0 for ``bm25``), retrieval is ``retrieve``: as ``run_strategy``
    runs them, without passage reranking.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    check_strategy(spec, qa_list, model)
    t0 = time.perf_counter()
    index = build_index(store, params)
    build_s = time.perf_counter() - t0
    with tempfile.NamedTemporaryFile(delete=False) as tmp:
        index.save(tmp.name)
        index_bytes = os.path.getsize(tmp.name)
    os.unlink(tmp.name)

    featurizer = Featurizer(index, store)

    expand_t = rerank_t = retrieve_t = 0.0
    measured = repetitions * len(qa_list)
    for _ in range(repetitions):
        for qa in qa_list:
            cs = None
            if spec.needs.candidates:
                t0 = time.perf_counter()
                cs = sample_expansions_stub(qa.question, n_samples, stub_seed,
                                            index, store)
                expand_t += time.perf_counter() - t0
            t0 = time.perf_counter()
            choice = choose(spec, index, store, qa, cs, model, featurizer)
            t1 = time.perf_counter()
            retrieve(spec, index, choice)
            retrieve_t += time.perf_counter() - t1
            if spec.needs.candidates:
                rerank_t += t1 - t0

    denom = max(1, measured)
    return LatencyReport(
        index_build_s=build_s,
        query_expand_s=expand_t / denom,
        query_rerank_s=rerank_t / denom,
        retrieval_s=retrieve_t / denom,
        index_bytes=index_bytes,
        queries_measured=measured,
    )


# -- TREC run files ---------------------------------------------------------

def write_run(runs: dict[str, RankedList], path, tag: str = "run") -> None:
    """``runs`` as a TREC run file whose sixth column, the run's name, is
    ``tag`` on every line.  A tag that is empty or holds whitespace would
    change the lines' column count, so it raises ValueError."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag must be one non-empty word, got {tag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for qid, rl in runs.items():
            fh.writelines(
                f"{qid} Q0 {pid} {rank} {score:.6f} {tag}\n"
                for rank, (pid, score) in enumerate(
                    zip(rl.pids(), rl.scores.tolist()), start=1))


def read_run(path) -> dict[str, RankedList]:
    """The lists of a TREC run file, by qid in first-seen order.  A qid's
    lines must carry one tag, the run's name; the lists do not keep it."""
    # qid -> (tag, pids, scores), in first-seen order.  Each pid is kept
    # as the str first read for it, so the lists share their pid strings;
    # scores are unboxed doubles.  A run's lines come grouped by qid, so
    # the current qid's column is held in locals and a qid is looked up
    # only where it changes.
    columns: dict[str, tuple[str, list[str], array]] = {}
    pid_of: dict[str, str] = {}
    qid = None
    with open_utf8(path, RunFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise RunFormatError(f"{path}:{lineno}: expected 6 columns")
            line_qid, _q0, pid, rank_s, score_s, tag = parts
            try:
                rank, score = int(rank_s), float(score_s)
            except ValueError as exc:
                raise RunFormatError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(score):
                raise RunFormatError(
                    f"{path}:{lineno}: score {score_s} is not finite")
            if line_qid != qid:
                qid = line_qid
                first_tag, pids, scores = columns.setdefault(
                    qid, (tag, [], array("d")))
            if tag != first_tag:
                raise RunFormatError(f"{path}:{lineno}: tag {tag} differs "
                                     f"from qid {qid}'s tag {first_tag}")
            if rank != len(pids) + 1:
                raise RunFormatError(
                    f"{path}:{lineno}: rank {rank} breaks the 1-based "
                    f"contiguous order for qid {qid}"
                )
            pids.append(pid_of.setdefault(pid, pid))
            scores.append(score)
    runs = {qid: RankedList(pids, scores)
            for qid, (_tag, pids, scores) in columns.items()}
    for qid, rl in runs.items():
        try:
            rl.validate()
        except ValueError as exc:
            raise RunFormatError(f"{path}: qid {qid}: {exc}") from None
    return runs


def report_csv(reports: dict[int, AccuracyReport]) -> str:
    buf = io.StringIO()
    ks = sorted(next(iter(reports.values())).accuracies) if reports else []
    writer = csv.writer(buf)
    writer.writerow(["N"] + [f"top{k}" for k in ks])
    for n, rep in sorted(reports.items()):
        writer.writerow([n] + [f"{rep.accuracies[k]:.6f}" for k in ks])
    return buf.getvalue()
