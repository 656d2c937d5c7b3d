"""Top-k accuracy metrics, TREC run file I/O, ablations, latency benchmarks."""

from __future__ import annotations

import csv
import io
import os
import tempfile
import time
from array import array
from dataclasses import asdict, dataclass

from .corpus import PassageStore
from .expansion import min_answer_rank, sample_expansions_stub, truncate, dedup
from .index import Bm25Params, Index, RankedList, build_index
from .pipeline import StrategySpec, run_strategy, strategy_query
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


def topk_accuracy(runs: dict[str, RankedList], qa_list, store: PassageStore,
                  ks=DEFAULT_KS, tag: str = "run") -> AccuracyReport:
    by_qid = {qa.qid: qa for qa in qa_list}
    unknown = set(runs) - set(by_qid)
    if unknown:
        raise ValueError(f"run qids not in QA set: {sorted(unknown)[:5]}")
    hits = {k: 0 for k in ks}
    for qa in qa_list:
        rl = runs.get(qa.qid)
        if rl is None:
            continue  # missing question counts as a miss at every k
        rank = min_answer_rank(rl, qa.answers, store)
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
        capped = {
            qid: truncate(dedup(cs), n) for qid, cs in candidates_map.items()
        }
        sub = StrategySpec(kind=spec.kind, n_samples=spec.n_samples,
                           k_retrieve=spec.k_retrieve)
        runs = {}
        for qa in qa_list:
            runs[qa.qid] = run_strategy(sub, index, store, qa,
                                        capped.get(qa.qid), model, featurizer)
        out[n] = topk_accuracy(runs, qa_list, store, ks=ks,
                               tag=f"{spec.kind}@N={n}")
    return out


def bench_latency(store: PassageStore, params: Bm25Params, spec: StrategySpec,
                  qa_list, repetitions: int = 1, model=None,
                  n_samples: int | None = None, stub_seed: int = 0,
                  ) -> LatencyReport:
    """Batch-size-1 per-query stage timings, plus index build time and size.

    Expand is sampling the candidates, rerank is choosing the query the
    strategy issues (both 0 for ``bm25``), retrieval is searching it.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    t0 = time.perf_counter()
    index = build_index(store, params)
    build_s = time.perf_counter() - t0
    with tempfile.NamedTemporaryFile(delete=False) as tmp:
        index.save(tmp.name)
        index_bytes = os.path.getsize(tmp.name)
    os.unlink(tmp.name)

    featurizer = Featurizer(index, store)
    n = n_samples or spec.n_samples

    expand_t = rerank_t = retrieve_t = 0.0
    measured = 0
    for _ in range(repetitions):
        for qa in qa_list:
            measured += 1
            cs = None
            if spec.expands:
                t0 = time.perf_counter()
                cs = dedup(sample_expansions_stub(qa.question, n, stub_seed,
                                                  index, store))
                expand_t += time.perf_counter() - t0
            t0 = time.perf_counter()
            query = strategy_query(spec, index, store, qa, cs, model,
                                   featurizer)
            t1 = time.perf_counter()
            index.search(query, spec.k_retrieve, qid=qa.qid)
            retrieve_t += time.perf_counter() - t1
            if spec.expands:
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

def write_run(runs: dict[str, RankedList], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, rl in runs.items():
            fh.writelines(
                f"{qid} Q0 {pid} {rank} {score:.6f} {rl.tag}\n"
                for rank, (pid, score) in enumerate(
                    zip(rl.pids(), rl.scores.tolist()), start=1))


def read_run(path) -> dict[str, RankedList]:
    # qid -> (tag, pids, scores), in first-seen order.  Lists share one str
    # per distinct pid, and scores are unboxed doubles.
    columns: dict[str, tuple[str, list[str], array]] = {}
    names: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise RunFormatError(f"{path}:{lineno}: expected 6 columns")
            qid, _q0, pid, rank_s, score_s, tag = parts
            try:
                rank, score = int(rank_s), float(score_s)
            except ValueError as exc:
                raise RunFormatError(f"{path}:{lineno}: {exc}") from exc
            _, pids, scores = columns.setdefault(qid, (tag, [], array("d")))
            if rank != len(pids) + 1:
                raise RunFormatError(
                    f"{path}:{lineno}: rank {rank} breaks the 1-based "
                    f"contiguous order for qid {qid}"
                )
            pids.append(names.setdefault(pid, pid))
            scores.append(score)
    runs: dict[str, RankedList] = {}
    for qid, (tag, pids, scores) in columns.items():
        rl = runs[qid] = RankedList.from_columns(qid, pids, scores, tag)
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
