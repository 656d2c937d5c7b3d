import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from expandrank.corpus import Passage, PassageStore, QAExample
from expandrank.expansion import ConstructionConfig, build_training_set
from expandrank.index import Bm25Params, build_index
from expandrank.passage_reranker import train_passage_reranker
from expandrank.reranker import Featurizer, TrainConfig, train
from expandrank.synth import make_planted

PLANTED_N = 200
TRAIN_CUT = 120


@pytest.fixture(scope="session")
def planted():
    return make_planted(PLANTED_N, seed=0)


@pytest.fixture(scope="session")
def planted_store(planted):
    return planted.store()


@pytest.fixture(scope="session")
def planted_index(planted_store):
    return build_index(planted_store, Bm25Params())


@pytest.fixture(scope="session")
def planted_cfg():
    return ConstructionConfig()


@pytest.fixture(scope="session")
def planted_split(planted):
    return planted.questions[:TRAIN_CUT], planted.questions[TRAIN_CUT:]


@pytest.fixture(scope="session")
def planted_train_set(planted, planted_store, planted_index, planted_cfg,
                      planted_split):
    qa_train, _ = planted_split
    return build_training_set(planted_store, planted_index, qa_train,
                              planted_cfg,
                              lambda qa, fold: planted.candidates[qa.qid])


@pytest.fixture(scope="session")
def featurizer(planted_index, planted_store):
    return Featurizer(planted_index, planted_store)


@pytest.fixture(scope="session")
def ri_model(planted_train_set, featurizer):
    return train(planted_train_set, TrainConfig(), "RI", featurizer)


@pytest.fixture(scope="session")
def rd_model(planted_train_set, featurizer):
    return train(planted_train_set, TrainConfig(), "RD", featurizer)


@pytest.fixture(scope="session")
def pr_scorer(planted_index, planted_store, planted_split):
    qa_train, _ = planted_split
    return train_passage_reranker(planted_index, planted_store, qa_train)


@pytest.fixture(scope="session")
def planted20():
    """A 20-question planted fixture, with its store and index."""
    fx = make_planted(20)
    store = fx.store()
    return fx, store, build_index(store, Bm25Params())


@pytest.fixture
def no_answers():
    """A question with no answers, which answer matching must reject."""
    return QAExample(qid="noans", question="where is topika000", answers=())


@pytest.fixture
def tiny_store():
    return PassageStore([
        Passage(id="p1", title="Hops", text="they grow hops in oregon and idaho"),
        Passage(id="p2", title="Beer", text="beer is brewed from malt and hops"),
        Passage(id="p3", title="Film",
                text="the film was released in the United States on May 18, 2018"),
    ])
