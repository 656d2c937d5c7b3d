from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank.text import Analyzer, STOPWORDS, normalize, porter_stem


class TestNormalize:
    def test_question(self):
        assert normalize("Where do they grow hops in the US?") == [
            "where", "do", "they", "grow", "hops", "in", "the", "us",
        ]

    def test_empty(self):
        assert normalize("") == []

    def test_punctuation_boundaries(self):
        assert normalize("Deadpool-2 (2018)") == ["deadpool", "2", "2018"]

    def test_unicode_compatibility(self):
        # fullwidth digits and ligatures fold to their compatibility forms
        assert normalize("ﬁve ５") == ["five", "5"]

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_joined_output(self, raw):
        tokens = normalize(raw)
        assert normalize(" ".join(tokens)) == tokens

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_tokens_wellformed(self, raw):
        for t in normalize(raw):
            assert t
            assert " " not in t


class TestPorter:
    def test_known_vocabulary(self):
        known = {
            "caresses": "caress", "ponies": "poni", "cats": "cat",
            "plastered": "plaster", "motoring": "motor", "hopping": "hop",
            "relational": "relat", "conditional": "condit",
            "decisiveness": "decis", "electrical": "electr",
            "adjustable": "adjust", "replacement": "replac",
            "sky": "sky", "feed": "feed",
        }
        for word, stem in known.items():
            assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("go") == "go"
        assert porter_stem("a") == "a"


class TestAnalyzer:
    def test_removes_stopwords_and_stems(self):
        analyzer = Analyzer()
        assert analyzer("The hops are growing") == ["hop", "grow"]

    def test_filters_off(self):
        analyzer = Analyzer(stemming=False, stopwords=False)
        assert analyzer("The hops are growing") == ["the", "hops", "are", "growing"]

    def test_stopword_only_text_empties(self):
        assert Analyzer()("the of and is") == []

    @given(st.lists(st.text(max_size=40), max_size=6), st.booleans(),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_memo_leaves_output_unchanged(self, texts, stemming, stopwords):
        analyzer = Analyzer(stemming=stemming, stopwords=stopwords)
        memo = {"hops": "hop"}
        texts = texts + ["The hops are growing", "growing hops"]
        assert [analyzer(t, memo) for t in texts] == [analyzer(t) for t in texts]

    def test_stopwords_are_normal_tokens(self):
        assert "the" in STOPWORDS and "is" in STOPWORDS
