"""Spans and counters around the public functions of each expandrank module.

The tracer wraps functions from outside the library: it replaces a module or
class attribute with a wrapper and puts the original back on ``uninstall``.
Functions imported by name into other modules (``normalize``,
``contains_answer``, ``dedup``, ...) are wrapped at every binding, so calls
through each of them are seen.  Nothing under ``src/`` changes.

A span is (name, parent span, start, end) and stays in memory until the run
ends.  Counters that need the arguments or the result of a call (postings
touched, positive documents, distinct keys) are computed after the span has
closed, and the time they take -- with the rest of the wrapper's own
bookkeeping -- is charged to no span: self time and net durations subtract
it.  Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import expandrank
from expandrank import (cli, corpus, evalbench, expansion, index, kernels,
                        passage_reranker, pipeline, reranker, synth, text)

from experiment import VARIANTS

# Every module whose globals may hold a name-imported library function.
_MODULES = (expandrank, cli, corpus, evalbench, expansion, index, kernels,
            passage_reranker, pipeline, reranker, synth, text)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        # bookkeeping time of a span's direct children, spent inside the span
        self.excl = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.t0.append(0)
        self.t1.append(0)
        self.excl.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, enter: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.t0[sid] = t0
        self.t1[sid] = t1
        parent = self.parent[sid]
        if parent >= 0:
            self.excl[parent] += (t0 - enter) + (perf_counter_ns() - t1)

    def wrap(self, fn, name, count=None):
        """``name`` is a span name or a function of (args, kwargs) giving one;
        ``count(tracer, args, kwargs, result)`` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            sid = tracer._open(name if isinstance(name, str)
                               else name(args, kwargs))
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, enter, t0, perf_counter_ns())
                raise
            t1 = perf_counter_ns()
            if count is not None:
                count(tracer, args, kwargs, result)
            tracer._close(sid, enter, t0, t1)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attr: str, name, count=None) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, count))
        else:
            wrapped = self.wrap(original, name, count)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def patch_function(self, fn, name, count=None) -> None:
        """Wrap ``fn`` at every module binding that holds it."""
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, self.wrap(fn, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "t0": np.frombuffer(self.t0, dtype=np.int64),
            "t1": np.frombuffer(self.t1, dtype=np.int64),
            "excl": np.frombuffer(self.excl, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Spans as arrays indexed by span id, with the table of span names;
        ``parent`` is a span id or -1, times are ns from the first span."""
        a = self.arrays()
        start = a["t0"][0] if len(a["t0"]) else 0
        np.savez(path, names=np.array(self.names),
                 name=a["name"].astype(np.uint16),
                 parent=a["parent"].astype(np.int32), start_ns=a["t0"] - start,
                 dur_ns=a["t1"] - a["t0"], overhead_ns=a["excl"])


# -- counters, computed from a call's arguments and result -------------------

def _count_analyze(tracer, args, kwargs, result):
    tracer.counts["text.analyze.tokens"] += len(result)


def _count_stem(tracer, args, kwargs, result):
    tracer.distinct["text.porter_stem"].add(args[0])


def _count_contains(tracer, args, kwargs, result):
    passage, answers = args
    tracer.distinct["corpus.contains_answer"].add((passage.id, tuple(answers)))


def _count_search(tracer, args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    tracer.distinct["index.search"].add((args[1], k))


def _count_score_query(tracer, args, kwargs, result):
    term_ids, post_offsets = args[0], args[2]
    tracer.counts["kernels.score_query.postings"] += int(
        (post_offsets[term_ids + 1] - post_offsets[term_ids]).sum())
    tracer.counts["index.search.positive_docs"] += int(
        np.count_nonzero(result > 0.0))


def _strategy_span(args, kwargs):
    spec = args[0]
    scorer = args[7] if len(args) > 7 else kwargs.get("passage_scorer")
    suffix = "" if scorer is None else "_pr"
    return f"pipeline.run_strategy.{spec.kind}{suffix}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    for fn, name, count in (
        (text.normalize, "text.normalize", None),
        (text.porter_stem, "text.porter_stem", _count_stem),
        (corpus.load_corpus, "corpus.load_corpus", None),
        (corpus.contains_answer, "corpus.contains_answer", _count_contains),
        (index.build_index, "index.build_index", None),
        (kernels.score_query, "kernels.score_query", _count_score_query),
        (expansion.label_candidates, "expansion.label_candidates", None),
        (expansion.dedup, "expansion.dedup", None),
        (reranker.rank_loss, "reranker.rank_loss", None),
        (reranker.train, lambda a, kw: f"reranker.train.{a[2]}", None),
        (reranker.select_best,
         lambda a, kw: f"reranker.select_best.{a[0].variant}", None),
        (passage_reranker.passage_features,
         "passage_reranker.passage_features", None),
        (passage_reranker.rerank_passages,
         "passage_reranker.rerank_passages", None),
        (passage_reranker.train_passage_reranker, "passage_reranker.train",
         None),
        (pipeline.run_strategy, _strategy_span, None),
        (evalbench.write_run, "evalbench.write_run", None),
        (evalbench.read_run, "evalbench.read_run", None),
        (evalbench.topk_accuracy, "evalbench.topk_accuracy", None),
    ):
        tracer.patch_function(fn, name, count)
    for cls, attr, name, count in (
        (text.Analyzer, "__call__", "text.analyze", _count_analyze),
        (index.Index, "search", "index.search", _count_search),
        (index.Index, "save", "index.save", None),
        (index.Index, "load", "index.load", None),
        (reranker.Featurizer, "features",
         lambda a, kw: f"reranker.features.{a[1]}", None),
        (reranker.ScorerModel, "score", "reranker.score", None),
    ):
        tracer.patch_method(cls, attr, name, count)


# -- per-layer metrics -------------------------------------------------------

def _nearest_ancestor(parent: np.ndarray, name: np.ndarray,
                      wanted: np.ndarray) -> np.ndarray:
    """For each span, its nearest proper ancestor whose name id is marked in
    ``wanted``, or -1.  Parents precede children, so this follows parent
    links a level at a time over all spans at once."""
    anc = parent.copy()
    while True:
        live = np.flatnonzero(anc >= 0)
        live = live[~wanted[name[anc[live]]]]
        if live.size == 0:
            return anc
        anc[live] = parent[anc[live]]


def layer_metrics(tracer: Tracer, index_bytes: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    n_names = len(tracer.names)
    dur = a["t1"] - a["t0"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ns = dur - child - a["excl"]
    # bookkeeping anywhere inside a span: its own excl plus its descendants'
    inside = a["excl"].tolist()
    par = parent.tolist()
    for i in range(len(par) - 1, -1, -1):
        if par[i] >= 0:
            inside[par[i]] += inside[i]
    net_ns = dur - np.array(inside, dtype=np.int64)

    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(n):
        return name == ids.get(n, -1)

    def calls(n):
        return float(mask(n).sum())

    def self_s(n):
        return float(self_ns[mask(n)].sum()) / 1e9

    def total_s(n):
        return float(net_ns[mask(n)].sum()) / 1e9

    def pct_us(n, q):
        vals = net_ns[mask(n)]
        return float(np.percentile(vals, q)) / 1e3 if vals.size else 0.0

    def under(child_name: str, ancestors) -> dict[str, float]:
        """Spans named ``child_name`` counted by the nearest ancestor among
        the given span names."""
        wanted = np.zeros(n_names + 1, dtype=bool)
        for n in ancestors:
            if n in ids:
                wanted[ids[n]] = True
        anc = _nearest_ancestor(parent, name, wanted)
        sel = mask(child_name) & (anc >= 0)
        by_id = np.bincount(name[anc[sel]], minlength=n_names)
        return {n: float(by_id[ids[n]]) if n in ids else 0.0
                for n in ancestors}

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in ("text.analyze", "text.porter_stem", "text.normalize",
                  "corpus.contains_answer", "index.search",
                  "kernels.score_query", "expansion.label_candidates",
                  "reranker.features.RI", "reranker.features.RD",
                  "reranker.score", "reranker.rank_loss",
                  "passage_reranker.passage_features"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["text.analyze.tokens"] = (float(tracer.counts["text.analyze.tokens"]),
                                "count")
    m["text.stem.unique_frac"] = (ratio(
        len(tracer.distinct["text.porter_stem"]), calls("text.porter_stem")),
        "frac")
    m["corpus.load_corpus.s"] = (total_s("corpus.load_corpus"), "s")
    m["corpus.contains_answer.unique_frac"] = (ratio(
        len(tracer.distinct["corpus.contains_answer"]),
        calls("corpus.contains_answer")), "frac")
    for op in ("build_index", "save", "load"):
        m[f"index.{op}.s"] = (total_s(f"index.{op}"), "s")
    m["index.bytes"] = (float(index_bytes), "bytes")
    m["index.search.us_p50"] = (pct_us("index.search", 50), "us")
    m["index.search.us_p95"] = (pct_us("index.search", 95), "us")
    m["index.search.unique_query_frac"] = (ratio(
        len(tracer.distinct["index.search"]), calls("index.search")), "frac")
    m["index.search.positive_docs_mean"] = (ratio(
        tracer.counts["index.search.positive_docs"],
        calls("kernels.score_query")), "count")
    postings = tracer.counts["kernels.score_query.postings"]
    m["kernels.score_query.postings"] = (float(postings), "count")
    m["kernels.score_query.ns_per_posting"] = (ratio(
        self_s("kernels.score_query") * 1e9, postings), "ns")
    m["expansion.dedup.s"] = (total_s("expansion.dedup"), "s")

    trains = ("reranker.train.RI", "reranker.train.RD")
    m["reranker.train.RI.s"] = (total_s("reranker.train.RI"), "s")
    m["reranker.train.RD.s"] = (total_s("reranker.train.RD"), "s")
    m["reranker.train.searches"] = (
        sum(under("index.search", trains).values()), "count")
    for variant in ("RI", "RD"):
        span = f"reranker.select_best.{variant}"
        m[f"{span}.us_p50"] = (pct_us(span, 50), "us")
    m["reranker.select_best.RD.searches_per_call"] = (ratio(
        under("index.search", ["reranker.select_best.RD"])[
            "reranker.select_best.RD"], calls("reranker.select_best.RD")),
        "count")

    m["passage_reranker.passage_features.analyze_calls"] = (
        under("text.analyze", ["passage_reranker.passage_features"])[
            "passage_reranker.passage_features"], "count")
    m["passage_reranker.rerank_passages.us_p50"] = (
        pct_us("passage_reranker.rerank_passages", 50), "us")
    m["passage_reranker.train.s"] = (total_s("passage_reranker.train"), "s")

    strategies = [f"pipeline.run_strategy.{v}" for v in VARIANTS]
    searches = under("index.search", strategies)
    for span in strategies:
        m[f"{span}.us_p50"] = (pct_us(span, 50), "us")
        m[f"{span}.searches_per_q"] = (ratio(searches[span], calls(span)),
                                       "count")
    for op in ("write_run", "read_run", "topk_accuracy"):
        m[f"evalbench.{op}.s"] = (total_s(f"evalbench.{op}"), "s")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m
