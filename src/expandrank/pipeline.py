"""End-to-end retrieval strategies and ranked-list fusion."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import PassageStore, QAExample
from .expansion import CandidateSet, label_candidates, truncate
from .index import Index, RankedList
from .passage_reranker import PassageScorer, rerank_passages
from .reranker import Featurizer, ScorerModel, select_best

log = logging.getLogger(__name__)


class StrategyNeeds(NamedTuple):
    """What a strategy reads besides the question."""
    candidates: bool    # a candidate set
    scorer: str | None  # the variant of the expansion scorer it runs
    answers: bool       # answer labels


STRATEGIES = {
    "bm25": StrategyNeeds(candidates=False, scorer=None, answers=False),
    "greedy": StrategyNeeds(candidates=True, scorer=None, answers=False),
    "concat": StrategyNeeds(candidates=True, scorer=None, answers=False),
    "oracle": StrategyNeeds(candidates=True, scorer=None, answers=True),
    "ear_ri": StrategyNeeds(candidates=True, scorer="RI", answers=False),
    "ear_rd": StrategyNeeds(candidates=True, scorer="RD", answers=False),
}


@dataclass
class StrategySpec:
    kind: str
    cap_n: int | None = None
    k_retrieve: int = 100
    pr_depth: int = 100

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.cap_n is not None and self.cap_n < 1:
            raise ValueError(f"cap_n must be >= 1, got {self.cap_n}")
        if self.k_retrieve < 1:
            raise ValueError(f"k_retrieve must be >= 1, got {self.k_retrieve}")
        if self.pr_depth < 1:
            raise ValueError(f"pr_depth must be >= 1, got {self.pr_depth}")

    @property
    def needs(self) -> StrategyNeeds:
        """What the strategy reads, from ``STRATEGIES``."""
        return STRATEGIES[self.kind]


def check_strategy(spec: StrategySpec, questions,
                   model: ScorerModel | None) -> None:
    """Raise ValueError unless ``model`` and every question give ``spec``'s
    strategy what it reads; a model the strategy does not run is ignored."""
    needs = spec.needs
    if needs.scorer and (model is None or model.variant != needs.scorer):
        got = "none" if model is None else f"an {model.variant} model"
        raise ValueError(f"strategy {spec.kind} needs a trained "
                         f"{needs.scorer} model, got {got}")
    if needs.answers:
        for qa in questions:
            if not qa.answers:
                raise ValueError(f"strategy {spec.kind} needs questions with "
                                 f"answers; {qa.qid} has none")


@dataclass(frozen=True, slots=True)
class Choice:
    """What a strategy chose for one question: the parts of the query it
    issues, and that query's top k when choosing already retrieved it.
    An expanded query is searched by parts, as labeling searches it
    (``Index.search_set``), so a chosen candidate's final list is its
    labeling list at the same k: ``choose`` cuts both lists it keeps,
    ``oracle``'s from the winner's labeling list and ``ear_rd``'s from
    the scores of the winner's top-2 set search
    (``reranker.select_best``)."""
    question: str
    # the chosen candidate, the joined candidates for ``concat``, or None
    # for a bare search
    expansion: str | None
    ranked: RankedList | None  # its top k, if choosing already retrieved it


def choose(spec: StrategySpec, index: Index, store: PassageStore,
           qa: QAExample, cs: CandidateSet | None, model: ScorerModel | None,
           featurizer: Featurizer | None) -> Choice:
    """What ``spec``'s strategy issues for one question, chosen from ``cs``
    capped at ``spec.cap_n``; the caller has passed it through
    ``check_strategy``.  ``oracle`` and ``ear_rd`` keep the winner's
    list, cut here to ``spec.k_retrieve``."""
    q = qa.question
    if not spec.needs.candidates:
        return Choice(q, None, None)
    if cs is None:
        raise ValueError(f"strategy {spec.kind} needs candidates for {qa.qid}")
    if spec.cap_n is not None:
        cs = truncate(cs, spec.cap_n)
    if spec.kind == "concat":
        return Choice(q, " ".join(c.text for c in cs.candidates), None)
    if spec.kind == "greedy":
        return Choice(q, cs.candidates[0].text, None)
    k = spec.k_retrieve
    if spec.kind == "oracle":
        labels, lists = label_candidates(index, store, qa, cs, k)
        best = labels.index(min(labels))  # ties go to the earliest
        return Choice(q, cs.candidates[best].text,
                      lists[best].head(k))  # searched at max(k, 2)
    best, found = select_best(model, q, cs, featurizer)  # ear_ri/_rd
    return Choice(q, cs.candidates[best].text,
                  found.top(best, k) if found else None)


def retrieve(spec: StrategySpec, index: Index, choice: Choice) -> RankedList:
    """``choice``'s top ``spec.k_retrieve``: the list choosing kept, else a
    search of its parts."""
    k = spec.k_retrieve
    if choice.ranked is not None:
        return choice.ranked
    if choice.expansion is None:
        return index.search(choice.question, k)
    return index.search_set(choice.question, [choice.expansion], k).lists[0]


def run_strategy(spec: StrategySpec, index: Index, store: PassageStore,
                 qa: QAExample, candidates: CandidateSet | None = None,
                 model: ScorerModel | None = None,
                 featurizer: Featurizer | None = None,
                 passage_scorer: PassageScorer | None = None) -> RankedList:
    """One question through one strategy, then optional passage reranking."""
    check_strategy(spec, (qa,), model)
    rl = retrieve(spec, index, choose(spec, index, store, qa, candidates,
                                      model, featurizer))
    if passage_scorer is not None:
        rl = rerank_passages(passage_scorer, index, qa.question, rl,
                             spec.pr_depth)
    return rl


def fuse(lists, k: int) -> RankedList:
    """Positional round-robin interleave, skipping already-emitted passages.

    This is GAR-style fusion of per-generator runs (``expandrank fuse``).
    Source scores are incomparable across lists, so emitted scores are the
    synthetic 1/position sequence.
    """
    if not lists:
        raise ValueError("fuse needs at least one list")
    if k < 1:
        raise ValueError("k must be >= 1")
    # each round offers every list's next pid; a duplicate costs its donor
    # the turn
    columns = [rl.pids() for rl in lists]
    offers = (pids[i] for i in range(max(map(len, columns)))
              for pids in columns if i < len(pids))
    out = list(dict.fromkeys(offers))[:k]
    scores = 1.0 / np.arange(1, len(out) + 1, dtype=np.float64)
    return RankedList(out, scores)


def run_dataset(spec: StrategySpec, index: Index, store: PassageStore,
                qa_list, candidates_map=None, model=None,
                featurizer: Featurizer | None = None,
                passage_scorer: PassageScorer | None = None,
                ) -> dict[str, RankedList]:
    """Per-question results in input order; per-question failures are logged
    and the run continues."""
    runs: dict[str, RankedList] = {}
    errors = 0
    for qa in qa_list:
        cands = candidates_map.get(qa.qid) if candidates_map else None
        try:
            runs[qa.qid] = run_strategy(spec, index, store, qa, cands, model,
                                        featurizer, passage_scorer)
        except Exception as exc:
            errors += 1
            log.error("question %s failed: %s", qa.qid, exc)
    if errors:
        log.error("%d/%d questions failed", errors, len(qa_list))
    return runs
