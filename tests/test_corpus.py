import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank.corpus import (CorpusError, Passage, PassageStore,
                               contains_answer, load_corpus, load_questions)
from expandrank.expansion import load_expansions, load_training_set
from oracles import brute_contains


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
    "labels": [{"index": 0, "r": 1, "hit": True}],
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
        (json.dumps({**TRAIN_ROW, "labels": [{"index": 0, "r": 0,
                                              "hit": False}]}),
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

    @given(
        st.text(alphabet="ab XY,.-", max_size=40),
        st.text(alphabet="ab XY,.-", min_size=1, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_substring_oracle(self, text, answer):
        if not text.strip("., -"):
            return
        p = Passage(id="x", title="", text=text)
        assert contains_answer(p, [answer]) == brute_contains(text, answer)


class TestPassageStore:
    def test_unknown_pid(self, tiny_store):
        with pytest.raises(CorpusError, match="unknown passage id 'missing'"):
            tiny_store.get("missing")

    def test_duplicate_in_memory(self):
        p = Passage(id="p", title="", text="x")
        with pytest.raises(CorpusError):
            PassageStore([p, p])
