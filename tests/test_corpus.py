import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import corpus
from expandrank.corpus import (AnswerMatcher, CorpusError, Passage,
                               PassageStore, QAExample, contains_answer,
                               load_corpus, load_questions)
from expandrank.expansion import (CandidateSet, ExpansionCandidate,
                                  label_candidates, load_expansions,
                                  load_training_set)
from expandrank.index import Bm25Params, Index, build_index
from expandrank.text import normalize
from oracles import reference_contains_answer

# Letters, digits, separators, and NFKC forms that fold to them: fullwidth
# letter and digit, a ligature, a superscript and a circled digit.
ANSWER_ALPHABET = "ab XY,.-09Ａ１ﬁ²①"


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadCorpus:
    def test_count_matches_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": f"P{i}", "title": "", "text": f"passage {i}"} for i in range(3)
        ])
        assert len(load_corpus(path)) == 3

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "P1", "title": "", "text": "one"},
            {"id": "P2", "title": "", "text": "two"},
            {"id": "P3", "title": "", "text": "three"},
            {"id": "P1", "title": "", "text": "again"},
        ])
        with pytest.raises(CorpusError, match="duplicate id P1"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "P1", "title": "", "text": "ok"}\nnot json\n')
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(path)


class TestLoadQuestions:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"qid": "q1", "question": "why", "answers": ["x"]}])
        qa = load_questions(path)
        assert qa[0].answers == ("x",)

    def test_missing_answers_rejected_by_default(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"qid": "q1", "question": "why"}])
        with pytest.raises(CorpusError, match="no answers"):
            load_questions(path)
        assert load_questions(path, require_answers=False)[0].answers == ()


TRAIN_ROW = {
    "qid": "q0", "question": "why",
    "candidates": [{"text": "a b", "generator_tag": "stub"}],
    "labels": [1],
    "top2": [[["p1", 2.5]]],
}

# loader, a valid first row, and one bad row per way a row can fail: not
# JSON, not an object, a missing field, a value its constructor rejects, a
# field of the wrong JSON type.
LOADER_ROWS = {
    "corpus": (load_corpus, {"id": "p0", "title": "", "text": "ok"}, [
        ('{"id": "p1", "text": ', "malformed JSON"),
        ('["p1", "t", "x"]', "expected a JSON object"),
        ('{"id": "p1", "title": "t"}', "missing field 'text'"),
        ('{"id": "p1", "text": ""}', "passage 'p1' has empty text"),
        ('{"id": "p1", "text": null}', "text must be a str, got NoneType"),
        ('{"id": "p1", "title": null, "text": "x"}',
         "title must be a str, got NoneType"),
        ('{"id": "p0", "text": "again"}', "duplicate id p0"),
        ('{"id": null, "text": "x"}',
         "id must be a string or an integer, got NoneType"),
        ('{"id": [1, 2], "text": "x"}',
         "id must be a string or an integer, got list"),
        ('{"id": true, "text": "x"}',
         "id must be a string or an integer, got bool"),
        ('{"id": "p 1", "text": "x"}',
         "id must be non-empty with no whitespace, got 'p 1'"),
        ('{"id": "", "text": "x"}',
         "id must be non-empty with no whitespace, got ''"),
    ]),
    "questions": (load_questions,
                  {"qid": "q0", "question": "why", "answers": ["x"]}, [
        ('{"qid": "q1", ', "malformed JSON"),
        ('"why"', "expected a JSON object"),
        ('{"qid": "q1", "answers": ["x"]}', "missing field 'question'"),
        ('{"qid": "q1", "question": "", "answers": ["x"]}',
         "question 'q1' is empty"),
        ('{"qid": "q1", "question": "why", "answers": "Paris"}',
         "answers must be a list, got str"),
        ('{"qid": "q1", "question": null, "answers": ["x"]}',
         "question must be a str, got NoneType"),
        ('{"qid": "q0", "question": "again", "answers": ["x"]}',
         "duplicate qid q0"),
        ('{"qid": "q1", "question": "why", "answers": []}',
         "question q1 has no answers"),
        ('{"qid": null, "question": "why", "answers": ["x"]}',
         "qid must be a string or an integer, got NoneType"),
        ('{"qid": "q1", "question": "why", "answers": [null]}',
         "answer must be a string or an integer, got NoneType"),
        ('{"qid": "q1", "question": "why", "answers": [1.5]}',
         "answer must be a string or an integer, got float"),
        ('{"qid": "q 1", "question": "why", "answers": ["x"]}',
         "qid must be non-empty with no whitespace, got 'q 1'"),
        ('{"qid": "", "question": "why", "answers": ["x"]}',
         "qid must be non-empty with no whitespace, got ''"),
    ]),
    "expansions": (load_expansions,
                   {"qid": "q0", "generator_tag": "stub", "text": "ok"}, [
        ('{"qid": "q1" "text": "x"}', "malformed JSON"),
        ("null", "expected a JSON object"),
        ('{"qid": "q1"}', "missing field 'text'"),
        ('{"qid": "q1", "generator_tag": "llm", "text": "x"}',
         "unknown generator_tag 'llm'"),
        ('{"qid": "q1", "text": 7}', "text must be a str, got int"),
        ('{"qid": true, "text": "x"}',
         "qid must be a string or an integer, got bool"),
        ('{"qid": "q\\t1", "text": "x"}',
         "qid must be non-empty with no whitespace, got 'q\\t1'"),
        ('{"qid": "", "text": "x"}',
         "qid must be non-empty with no whitespace, got ''"),
    ]),
    "training": (load_training_set, TRAIN_ROW, [
        ("{not json", "malformed JSON"),
        ("[]", "expected a JSON object"),
        (json.dumps({k: v for k, v in TRAIN_ROW.items() if k != "labels"}),
         "missing field 'labels'"),
        (json.dumps({**TRAIN_ROW, "labels": [0]}),
         "rank labels are 1-based"),
        (json.dumps({**TRAIN_ROW, "question": None}),
         "question must be a str, got NoneType"),
        (json.dumps({**TRAIN_ROW, "candidates": [{"text": None}]}),
         "text must be a str, got NoneType"),
        (json.dumps({**TRAIN_ROW, "qid": [1, 2]}),
         "qid must be a string or an integer, got list"),
        (json.dumps({**TRAIN_ROW, "qid": "q 0"}),
         "qid must be non-empty with no whitespace, got 'q 0'"),
        (json.dumps({**TRAIN_ROW, "qid": ""}),
         "qid must be non-empty with no whitespace, got ''"),
    ]),
}

# loader, a row whose ids (and answers) are JSON integers, and what the
# loaded value reads as
INTEGER_IDS = {
    "corpus": (load_corpus, {"id": 7, "text": "x"},
               lambda store: [p.id for p in store], ["7"]),
    "questions": (load_questions, {"qid": 7, "question": "why",
                                   "answers": [1984]},
                  lambda qs: [(qa.qid, qa.answers) for qa in qs],
                  [("7", ("1984",))]),
    "expansions": (load_expansions, {"qid": 7, "text": "x"}, list, ["7"]),
    "training": (load_training_set, {**TRAIN_ROW, "qid": 7},
                 lambda exs: [(ex.qid, ex.candidates.qid) for ex in exs],
                 [("7", "7")]),
}


class TestReadJsonl:
    @pytest.mark.parametrize("loader,line,message", [
        pytest.param(name, line, message, id=f"{name}-{message}")
        for name, (_, _, bad) in LOADER_ROWS.items() for line, message in bad
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, loader, line,
                                         message):
        load, good, _ = LOADER_ROWS[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{line}\n")
        with pytest.raises(CorpusError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:3: {message}")

    @pytest.mark.parametrize("loader", sorted(LOADER_ROWS))
    def test_invalid_utf8_names_path_and_line(self, tmp_path, loader):
        # a CRLF line, then a lone CR, which text mode also counts as a line
        load, good, _ = LOADER_ROWS[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_bytes(json.dumps(good).encode() + b"\r\n\r"
                         + json.dumps(good).encode()[:-1] + b'\xff"\n')
        with pytest.raises(CorpusError) as info:
            load(path)
        assert str(info.value) == f"{path}:3: not valid UTF-8"


class TestIntegerIds:
    @pytest.mark.parametrize("loader", sorted(INTEGER_IDS))
    def test_integer_reads_as_its_decimal_string(self, tmp_path, loader):
        load, row, read, expected = INTEGER_IDS[loader]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [row])
        assert read(load(path)) == expected


class TestContainsAnswer:
    def test_date_answer(self, tiny_store):
        p = tiny_store.get("p3")
        assert contains_answer(p, ["May 18, 2018"])

    def test_identity(self):
        assert contains_answer(Passage(id="x", title="", text="abc"), ["abc"])

    def test_no_token_sequence_match(self):
        p = Passage(id="x", title="", text="the answer is forty-two")
        assert not contains_answer(p, ["42"])

    def test_order_and_case_invariance(self, tiny_store):
        p = tiny_store.get("p3")
        assert contains_answer(p, ["nope", "MAY 18, 2018"])
        assert contains_answer(p, ["MAY 18, 2018", "nope"])

    def test_requires_contiguity(self):
        p = Passage(id="x", title="", text="alpha beta gamma")
        assert not contains_answer(p, ["alpha gamma"])

    def test_empty_answers_rejected(self, tiny_store):
        with pytest.raises(ValueError):
            contains_answer(tiny_store.get("p1"), [])

    def test_answer_normalizing_to_nothing_never_matches(self):
        p = Passage(id="x", title="", text="a, b - c")
        assert not contains_answer(p, [",", " - ", ""])
        assert contains_answer(p, [",", "B C"])

    @given(st.text(alphabet=ANSWER_ALPHABET, min_size=1, max_size=40),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_substring_oracle(self, text, data):
        # answers drawn freely or cut from the passage, so both hits and
        # misses are common; some normalize to nothing
        cut = st.tuples(st.integers(0, len(text)), st.integers(0, 10)).map(
            lambda t: text[t[0] : t[0] + t[1]])
        answers = data.draw(st.lists(
            st.one_of(st.text(alphabet=ANSWER_ALPHABET, max_size=10), cut),
            min_size=1, max_size=4))
        p = Passage(id="x", title="", text=text)
        expected = reference_contains_answer(text, answers)
        matcher = AnswerMatcher(answers)
        assert matcher(p) == expected
        assert matcher(p) == expected  # the kept result
        assert contains_answer(p, answers) == expected


class TestAnswerMatcher:
    def test_missing_answers_name_the_question(self):
        with pytest.raises(ValueError, match="^question q7 has no answers$"):
            AnswerMatcher((), "q7")

    def test_result_kept_per_passage_id(self, tiny_store, monkeypatch):
        matcher = AnswerMatcher(["hops"], "q1")
        seen = []
        monkeypatch.setattr(corpus, "normalize",
                            lambda raw: seen.append(raw) or normalize(raw))
        assert [matcher(tiny_store.get(pid)) for pid in ("p1", "p3", "p1")] \
            == [True, False, True]
        assert seen == [tiny_store.get("p1").text, tiny_store.get("p3").text]

    def test_first_rank(self, tiny_store):
        matcher = AnswerMatcher(["malt", "May 18"], "q1")
        assert matcher.first_rank(["p1", "p2", "p3"], tiny_store) == 2
        assert matcher.first_rank(["p3", "p2"], tiny_store) == 1
        assert matcher.first_rank(["p1"], tiny_store) is None
        assert matcher.first_rank([], tiny_store) is None


# Passage words: inflected forms that share a stem, stopwords, a digit
# token and capitals.  The other words are in no passage's text, though a
# title may hold them.
_TEXT_WORDS = ("run", "runs", "running", "Running", "the", "of", "is",
               "gamma", "delta", "2018", "x1")
_OTHER_WORDS = ("zeta", "omega", "runner")
_ANSWERS = ("runs running", "run run", "RUNNING", "the of", "is", "zeta",
            "gamma zeta", "the gamma", "delta delta delta", "--", "")


@st.composite
def _store_and_answers(draw):
    """A small store, answers that pick out some, none or all of its
    passages, and an order of its pids."""
    n = draw(st.integers(1, 8))
    texts = [" ".join(draw(st.lists(st.sampled_from(_TEXT_WORDS),
                                    min_size=1, max_size=8)))
             for _ in range(n)]
    titles = [" ".join(draw(st.lists(st.sampled_from(_TEXT_WORDS
                                                     + _OTHER_WORDS),
                                     max_size=3)))
              for _ in range(n)]
    store = PassageStore([Passage(id=f"p{i}", title=title, text=text)
                          for i, (title, text) in
                          enumerate(zip(titles, texts))])
    cut = st.tuples(st.sampled_from(texts), st.integers(0, 8),
                    st.integers(1, 3)).map(
        lambda t: " ".join(t[0].split()[t[1]:t[1] + t[2]]))
    free = st.lists(st.sampled_from(_TEXT_WORDS + _OTHER_WORDS), min_size=1,
                    max_size=3).map(" ".join)
    answers = draw(st.lists(st.one_of(st.sampled_from(_ANSWERS), cut, free),
                            min_size=1, max_size=3))
    return store, answers, draw(st.permutations([p.id for p in store]))


class TestAnswerMatcherWithIndex:
    @given(_store_and_answers(), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_matcher_without_index_and_reference(
            self, drawn, stemming, stopwords, index_titles):
        store, answers, order = drawn
        index = build_index(store, Bm25Params(
            stemming=stemming, stopwords=stopwords,
            index_titles=index_titles))
        expected = {pid: reference_contains_answer(store.get(pid).text,
                                                   answers)
                    for pid in order}
        rank = next((r for r, pid in enumerate(order, start=1)
                     if expected[pid]), None)
        assert AnswerMatcher(answers).first_rank(order, store) == rank
        assert AnswerMatcher(answers, index=index).first_rank(order,
                                                              store) == rank
        # misses first, so the filter is built before the rest are judged
        misses_first = sorted(order, key=expected.__getitem__)
        matcher = AnswerMatcher(answers, index=index)
        assert [matcher(store.get(pid)) for pid in misses_first] == \
            [expected[pid] for pid in misses_first]

    def test_no_posting_list_read_while_first_passages_match(
            self, monkeypatch):
        """Labels whose lists all rank an answer passage first read no
        posting list: the filter is built on a question's first miss."""
        store = PassageStore([
            Passage(id="a", title="", text="hops hops hops in oregon"),
            Passage(id="b", title="", text="malt and hops"),
            Passage(id="c", title="", text="barley water"),
        ])
        index = build_index(store, Bm25Params())
        reads = []
        on_every_list = Index.pids_on_every_list
        monkeypatch.setattr(
            Index, "pids_on_every_list",
            lambda self, tids: reads.append(tids) or on_every_list(self,
                                                                   tids))
        cs = CandidateSet(qid="q", candidates=[
            ExpansionCandidate("hops"), ExpansionCandidate("oregon hops")])
        qa = QAExample(qid="q", question="hops", answers=("Oregon",))
        labels, _ = label_candidates(index, store, qa, cs, 3)
        assert labels == [1, 1]
        assert reads == []
        # no list holds the answer: one read, on the first miss
        qa = QAExample(qid="q", question="malt", answers=("oregon",))
        labels, _ = label_candidates(index, store, qa, CandidateSet(
            qid="q", candidates=[ExpansionCandidate("barley"),
                                 ExpansionCandidate("malt")]), 3)
        assert labels == [4, 4] and len(reads) == 1

    def test_passages_off_the_answer_lists_are_not_normalized(
            self, tiny_store, monkeypatch):
        index = build_index(tiny_store, Bm25Params())
        matcher = AnswerMatcher(["grow hops"], "q1", index)
        seen = []
        monkeypatch.setattr(corpus, "normalize",
                            lambda raw: seen.append(raw) or normalize(raw))
        # p3 misses, which builds the filter; p2 holds "hops" but not
        # "grow", so it is off the answer's lists; p1 holds both
        assert matcher.first_rank(["p3", "p2", "p1"], tiny_store) == 3
        assert seen == [tiny_store.get(pid).text for pid in ("p3", "p1")]


class TestPassageStore:
    def test_unknown_pid(self, tiny_store):
        with pytest.raises(CorpusError, match="unknown passage id 'missing'"):
            tiny_store.get("missing")

    def test_empty_id_rejected(self):
        with pytest.raises(CorpusError,
                           match="^passage id must be nonempty$"):
            Passage(id="", title="", text="x")

    def test_duplicate_in_memory(self):
        p = Passage(id="p", title="", text="x")
        with pytest.raises(CorpusError):
            PassageStore([p, p])
