"""The benchmark tracer's hooks exist in the library.

``perfbench/tracing.py`` wraps library functions and methods by name and
looks each method up in its own class's ``vars``, so moving one (say
``ScorerModel.score``) into a base class would break every traced
benchmark run.  Here the tracer is installed and removed in process.
"""

import importlib
from pathlib import Path

import numpy as np

from expandrank import index, reranker, text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the methods the tracer wraps, each in the class that defines it
METHODS = [(text.Analyzer, "__call__"), (index.Index, "search"),
           (index.Index, "save"), (index.Index, "load"),
           (reranker.Featurizer, "features"), (reranker.ScorerModel, "score")]


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = [*tracing._MODULES, *{cls for cls, _ in METHODS}]
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert set(METHODS) <= set(wrapped)
        for owner, attr in wrapped:
            assert vars(owner)[attr] is not before[owner][attr], (owner, attr)
        model = reranker.ScorerModel("RI", reranker.RI_SCHEMA, np.zeros(8),
                                     np.zeros(8), np.ones(8))
        model.score(np.zeros((2, 8)))
        assert "reranker.score" in tracer.names
    finally:
        tracer.uninstall()
    for owner, attr in wrapped:
        assert vars(owner)[attr] is before[owner][attr], (owner, attr)
