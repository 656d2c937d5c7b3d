from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from expandrank import synth
from expandrank.corpus import Passage, PassageStore
from expandrank.index import Bm25Params, build_index
from expandrank.text import Analyzer, STOPWORDS, normalize, porter_stem
from oracles import (reference_expanded_search, reference_porter_stem,
                     reference_term_ids)

# Every suffix a Porter step tests for, plus "sion"/"tion" for step 4's "ion".
PORTER_SUFFIXES = """sses ies eed ed ing ational tional enci anci izer abli
    alli entli eli ousli ization ation ator alism iveness fulness ousness aliti
    iviti biliti icate ative alize iciti ical ful ness al ance ence er ic able
    ible ant ement ment ent ou ism ate iti ous ive ize ion sion tion e ll y
    s""".split()

# Query text from arbitrary unicode and from pieces that meet the analyzer's
# edge cases: stopwords, digits, compatibility forms NFKC folds to ASCII
# (fullwidth, ligature, superscript, dotted capital I), a letter plus a
# combining mark that NFKC composes, and separators.
_QUERY_TEXT = st.lists(st.one_of(st.text(max_size=6), st.sampled_from([
    "the", "is", "and", "hops", "growing", "cafe", "ＨＯＰＳ", "ﬁsh", "x²",
    "İs", "e\u0301", "\u0301", "Å", "2018", "５", " ", "-"])),
    max_size=6).map("".join)
# A candidate may start with a combining mark, which in the expanded query
# follows the separating space rather than the question's last letter.
_LEADING_MARK = st.sampled_from(["", "\u0301", "\u0308", "\u0327"])


@cache
def _index(stemming: bool, stopwords: bool):
    store = PassageStore([
        Passage(id=f"p{i}", title="", text=text) for i, text in enumerate([
            "they grow hops in oregon", "growing hops is the cafe trade",
            "fish and five x2 is", "the cafe sells fish", "hop hops hopping",
        ])])
    return build_index(store, Bm25Params(stemming=stemming,
                                         stopwords=stopwords))


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
            "happy": "happi", "syzygy": "syzygi", "yyyy": "yyyi",
            "cry0y": "cry0i", "y2k": "y2k", "abye": "aby",
            "adoption": "adopt", "controlling": "control",
            "generalizations": "gener", "agreed": "agre", "filing": "file",
            "sensibility": "sensibl", "hopefulness": "hope",
            "electriciti": "electr", "buzzing": "buzz", "falling": "fall",
            "hissing": "hiss", "conflated": "conflat", "troubled": "troubl",
            "sized": "size",
        }
        for word, stem in known.items():
            assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("go") == "go"
        assert porter_stem("a") == "a"

    @given(st.text(alphabet="aeiouybcdglmnprstwxz0123456789", max_size=14))
    @settings(max_examples=1000, deadline=None)
    def test_matches_reference_on_text(self, word):
        assert porter_stem(word) == reference_porter_stem(word)

    @given(st.text(alphabet="aeiouybcdglmnprstwxz", max_size=6),
           st.sampled_from([""] + PORTER_SUFFIXES))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_suffixed_stems(self, stem, last):
        # The stem with every suffix, then optionally a second one after it.
        words = [stem + suffix + last for suffix in PORTER_SUFFIXES]
        assert [porter_stem(w) for w in words] == [
            reference_porter_stem(w) for w in words]

    @given(st.text(max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_any_string(self, word):
        # Upper case and non-ASCII letters are consonants in both.
        assert porter_stem(word) == reference_porter_stem(word)

    def test_matches_reference_on_synthetic_vocabularies(self):
        fx = synth.make_planted(200)
        texts = [p.text for p in fx.passages]
        texts += [qa.question for qa in fx.questions]
        texts += [c.text for cs in fx.candidates.values() for c in cs.candidates]
        texts += [p.text for p in synth.make_random_corpus(1000)]
        vocab = {t for text in texts for t in normalize(text)} - STOPWORDS
        assert len(vocab) > 2000
        assert [porter_stem(w) for w in sorted(vocab)] == [
            reference_porter_stem(w) for w in sorted(vocab)]


class TestAnalyzer:
    def test_removes_stopwords_and_stems(self):
        analyzer = Analyzer()
        assert analyzer("The hops are growing") == ["hop", "grow"]

    def test_filters_off(self):
        analyzer = Analyzer(stemming=False, stopwords=False)
        assert analyzer("The hops are growing") == ["the", "hops", "are", "growing"]

    def test_stopword_only_text_empties(self):
        assert Analyzer()("the of and is") == []

    def test_term_of_each_token(self):
        assert [Analyzer().term(t) for t in ("the", "hops", "growing")] == [
            None, "hop", "grow"]
        assert Analyzer(stemming=False).term("hops") == "hops"
        assert Analyzer(stopwords=False).term("the") == "the"

    @given(_QUERY_TEXT, st.booleans(), st.booleans())
    def test_a_token_has_no_term_iff_it_is_a_stopword(self, text, stemming,
                                                      stopwords):
        analyzer = Analyzer(stemming=stemming, stopwords=stopwords)
        for token in normalize(text):
            assert (analyzer.term(token) is None) == analyzer.is_stopword(token)

    @given(_QUERY_TEXT, _LEADING_MARK, _QUERY_TEXT, st.booleans(),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_question_and_candidate_tokens_search_as_expanded_query(
            self, question, mark, candidate, stemming, stopwords):
        """A candidate set's searches read the question's term ids once and
        each candidate's once; searched by parts they must equal the parts
        reference, which analyzes each text whole, bit for bit."""
        candidate = mark + candidate
        index = _index(stemming, stopwords)
        q_ids, c_ids = index.term_ids(question), index.term_ids(candidate)
        assert (q_ids, c_ids) == (reference_term_ids(index, question),
                                  reference_term_ids(index, candidate))
        got = index.search_set(question, [candidate], 10).lists[0]
        assert got.entries == \
            reference_expanded_search(index, question, candidate, 10)

    def test_stopwords_are_normal_tokens(self):
        assert "the" in STOPWORDS and "is" in STOPWORDS


class TestTermIds:
    @given(_QUERY_TEXT, _LEADING_MARK, st.lists(_QUERY_TEXT, max_size=6),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equal_the_analyzed_text_looked_up(self, text, mark, others,
                                               stemming, stopwords):
        """``Index.term_ids`` reads a map filled one token at a time; it must
        give the ids of the whole text's analysis, on a cold map and on one
        that other texts, in drawn order, have filled."""
        text = mark + text
        index = _index.__wrapped__(stemming, stopwords)  # a cold map
        for t in (text, *others, text):
            assert index.term_ids(t) == reference_term_ids(index, t)
