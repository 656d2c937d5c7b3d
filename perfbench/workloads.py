"""Seeded input generation for the three benchmark workloads.

Each workload writes the files the CLI reads -- corpus, train questions,
test questions and expansions, all JSONL -- into a directory.  The library
only ever sees these files; the seed is a benchmark argument.  Sizes are
fixed here and do not depend on the seed, so every seed runs the same
amount of work.
"""

from __future__ import annotations

import random
from pathlib import Path

from expandrank import synth
from expandrank.corpus import Passage, QAExample
from expandrank.expansion import CandidateSet, ExpansionCandidate

# planted: synth.make_planted; the only workload whose accuracy orderings
# are known, so it carries the ordering checks.
PLANTED_QUESTIONS = 1000
# Question i is easy (2 related passages, not 10) when i is even, which
# makes per-question latency bimodal.  A test set of 4 slots in 10 with one
# even slot is a 60/40 split whose test questions are 25% easy, so the
# median latency lies inside a mode, not in the gap between two equal ones.
PLANTED_TEST_SLOTS = (0, 1, 3, 5)

# zipf-rd: random Zipf corpus where most documents score on every query, so
# posting-list scoring and top-k selection dominate.
ZIPF_DOCS = 5000
ZIPF_VOCAB = 2000
ZIPF_DOC_LEN = 40
ZIPF_TRAIN, ZIPF_TEST = 100, 200
ZIPF_CANDIDATES = 20

# ingest: large suffix-heavy vocabulary, so Porter stemming dominates the
# index build and a per-token memo hits less often than on zipf-rd.
INGEST_STEMS = 12000
INGEST_DOCS = 4500
INGEST_DOC_LEN = 40
INGEST_ZIPF_S = 0.9
INGEST_TRAIN, INGEST_TEST = 300, 200
INGEST_CANDIDATES = 8

QUESTION_TOKENS = 4
ANSWER_TOKENS = 3

_SUFFIXES = ("", "s", "ing", "ed", "er", "ation", "ational", "ness", "ful",
             "ive", "ment", "ize", "ization", "al", "ly", "able", "ousness",
             "iveness", "ence", "ism")
_FUNCTION_WORDS = ("the", "of", "and", "to", "in", "a", "is", "that", "for",
                   "it", "as", "was", "with", "be", "by", "on", "not", "he",
                   "this", "are", "or", "his", "from", "at", "which", "but")
_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "br", "cr", "dr", "gr", "pr", "tr", "st", "sp", "pl",
           "cl", "ch", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ea", "ou", "ai")
_CODAS = ("", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck", "nt")


def _english_vocab(rng: random.Random) -> list[str]:
    """About 4 word forms for each of INGEST_STEMS invented stems."""
    stems: set[str] = set()
    while len(stems) < INGEST_STEMS:
        syllables = 1 + rng.randrange(3)
        stems.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                          + rng.choice(_CODAS) for _ in range(syllables)))
    forms: list[str] = []
    for stem in sorted(stems):
        forms.extend(stem + suf for suf in rng.sample(_SUFFIXES, 4))
    rng.shuffle(forms)
    return forms


def _candidates(rng: random.Random, qid: str, source: list[str],
                vocab: list[str], cum_weights: list[float],
                n: int) -> CandidateSet:
    """Generator-style expansions of graded quality: candidate j mixes
    tokens of the answer passage with vocabulary draws in proportion j/(n-1);
    the order is shuffled so the first candidate is not the best."""
    shares = [j / (n - 1) for j in range(n)]
    rng.shuffle(shares)
    out = []
    for share in shares:
        length = 3 + rng.randrange(4)
        words = [rng.choice(source) if rng.random() < share
                 else rng.choices(vocab, cum_weights=cum_weights)[0]
                 for _ in range(length)]
        out.append(ExpansionCandidate(text=" ".join(words),
                                      generator_tag="external"))
    return CandidateSet(qid=qid, candidates=out)


def _source_questions(rng: random.Random, passages: list[Passage], n: int,
                      prefix: str, vocab: list[str],
                      cum_weights: list[float], n_candidates: int):
    questions, candidates = [], {}
    for i in range(n):
        tokens = passages[rng.randrange(len(passages))].text.split()
        content = [t for t in tokens if t not in _FUNCTION_WORDS]
        qid = f"{prefix}{i:04d}"
        start = rng.randrange(len(tokens) - ANSWER_TOKENS + 1)
        question = " ".join(rng.choices(content, k=QUESTION_TOKENS))
        questions.append(QAExample(
            qid=qid, question=question,
            answers=(" ".join(tokens[start:start + ANSWER_TOKENS]),)))
        candidates[qid] = _candidates(rng, qid, tokens, vocab, cum_weights,
                                      n_candidates)
    return questions, candidates


def _cumulative(weights: list[float]) -> list[float]:
    out, total = [], 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


def _planted(seed: int):
    fx = synth.make_planted(PLANTED_QUESTIONS, seed=seed)
    test = [qa for i, qa in enumerate(fx.questions)
            if i % 10 in PLANTED_TEST_SLOTS]
    train = [qa for i, qa in enumerate(fx.questions)
             if i % 10 not in PLANTED_TEST_SLOTS]
    return fx.passages, train, test, fx.candidates


def _zipf_rd(seed: int):
    passages = synth.make_random_corpus(ZIPF_DOCS, seed=seed,
                                        vocab_size=ZIPF_VOCAB,
                                        doc_len=ZIPF_DOC_LEN)
    rng = random.Random(f"zipf-rd:{seed}")
    vocab = sorted({t for p in passages for t in p.text.split()})
    cum = _cumulative([1.0] * len(vocab))
    questions, candidates = _source_questions(
        rng, passages, ZIPF_TRAIN + ZIPF_TEST, "z", vocab, cum,
        ZIPF_CANDIDATES)
    return passages, questions[:ZIPF_TRAIN], questions[ZIPF_TRAIN:], candidates


def _ingest(seed: int):
    rng = random.Random(f"ingest:{seed}")
    vocab = list(_FUNCTION_WORDS) + _english_vocab(rng)
    cum = _cumulative([1.0 / (r + 1) ** INGEST_ZIPF_S
                       for r in range(len(vocab))])
    passages = [
        Passage(id=f"e{d:06d}", title="",
                text=" ".join(rng.choices(vocab, cum_weights=cum,
                                          k=INGEST_DOC_LEN)))
        for d in range(INGEST_DOCS)
    ]
    questions, candidates = _source_questions(
        rng, passages, INGEST_TRAIN + INGEST_TEST, "e", vocab, cum,
        INGEST_CANDIDATES)
    return (passages, questions[:INGEST_TRAIN], questions[INGEST_TRAIN:],
            candidates)


_MAKERS = {"planted": _planted, "zipf-rd": _zipf_rd, "ingest": _ingest}


def input_paths(out_dir: Path) -> dict[str, Path]:
    return {role: out_dir / f"{role}.jsonl"
            for role in ("corpus", "train", "test", "train_expansions",
                         "test_expansions")}


def generate(workload: str, seed: int, out_dir: Path) -> None:
    """Write the workload's input files into ``out_dir``."""
    passages, train_qs, test_qs, candidates = _MAKERS[workload](seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = input_paths(out_dir)
    synth.write_corpus(passages, paths["corpus"])
    synth.write_questions(train_qs, paths["train"])
    synth.write_questions(test_qs, paths["test"])
    # One expansions file per question file, as a CLI user passes them;
    # load_expansions warns about every qid missing from the question file.
    for role, qs in (("train", train_qs), ("test", test_qs)):
        synth.write_expansions({qa.qid: candidates[qa.qid] for qa in qs},
                               paths[f"{role}_expansions"])


if __name__ == "__main__":
    # Run as a child process so that generation does not count towards the
    # measuring process's peak memory: workloads.py <workload> <seed> <dir>
    import sys

    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
