"""BM25 retrieval with sampled query expansions and a trained reranker."""

from .corpus import (AnswerMatcher, Passage, PassageStore, QAExample,
                     contains_answer, load_corpus, load_questions)
from .expansion import (CandidateSet, ConstructionConfig, ExpansionCandidate,
                        TrainingExample, build_training_set, dedup,
                        label_candidates, load_expansions,
                        sample_expansions_stub, truncate)
from .index import Bm25Params, Index, RankedList, build_index
from .passage_reranker import (PassageScorer, PRTrainConfig, rerank_passages,
                               train_passage_reranker)
from .pipeline import StrategySpec, fuse, run_dataset, run_strategy
from .reranker import (Featurizer, ScorerModel, TrainConfig, rank_loss,
                       select_best, train)
from .text import normalize

__version__ = "0.1.0"
