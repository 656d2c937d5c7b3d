"""Text normalization and analysis.

Two layers are deliberately kept apart:

* ``normalize`` is the answer-matching convention: NFKC, then lowercase,
  then split into maximal ``[0-9a-z]+`` runs.  No stemming, no
  stopword removal — answer strings like dates must survive verbatim.
* ``Analyzer`` is the indexing convention: ``normalize`` plus optional English
  stopword removal and Porter stemming.  ``Analyzer.term`` is its one rule:
  a normalized token indexes as no term (a stopword) or as exactly one term.
  The index build and the index's token lookup both call it, one call per
  distinct token; ``Analyzer.__call__`` applies it to each token of a raw
  text.  Queries and documents must go through the same analyzer or scores
  are meaningless.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[0-9a-z]+")

# The classic short English stopword list used by Lucene's StandardAnalyzer.
STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)


def normalize(raw: str) -> list[str]:
    """The maximal ``[0-9a-z]+`` runs of ``raw``, NFKC-normalized and
    lowercased, in order."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFKC", raw).lower())


# ---------------------------------------------------------------------------
# Porter stemmer (Porter, 1980).  The five steps, on already-lowercased
# tokens.  Each word's consonant/vowel pattern is built once ("c"/"v", one
# letter per character) and every test reads it: the measure m of a stem is
# the number of "vc" pairs in the stem's pattern, which is a prefix of the
# word's pattern because a letter's class depends only on the letters
# before it.
# ---------------------------------------------------------------------------


class _CvTable(dict):
    """``str.translate`` table: a-e-i-o-u to "v", "y" kept, all else "c"."""

    def __missing__(self, codepoint: int) -> str:
        return "c"


_CV = _CvTable(dict.fromkeys(range(128), "c"))
_CV.update(str.maketrans("aeiouy", "vvvvvy"))


def _pattern(word: str) -> str:
    """The c/v pattern of ``word``: ``y`` is a consonant at the start or
    after a vowel, else a vowel."""
    p = word.translate(_CV)
    if "y" not in p:
        return p
    out = []
    prev = "v"
    for ch in p:
        if ch == "y":
            ch = "c" if prev == "v" else "v"
        out.append(ch)
        prev = ch
    return "".join(out)


def _by_last_letter(rules):
    """Group (suffix, replacement) rules by the suffix's last letter, in table
    order, so the first rule that matches is the first of the whole table.
    Each rule carries its replacement's pattern; no replacement holds a
    ``y``, so that pattern does not depend on the stem before it."""
    table: dict[str, list[tuple[str, str, str]]] = {}
    for suffix, repl in rules:
        table.setdefault(suffix[-1], []).append((suffix, repl, _pattern(repl)))
    return table


_STEP2 = _by_last_letter((
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
))
_STEP3 = _by_last_letter((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
))
# "ion" is removed only after "s" or "t"; no other step-4 suffix ends in "n".
_STEP4 = _by_last_letter((s, "") for s in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "ion",
))


def _ends_cvc(w: str, p: str, end: int) -> bool:
    """``w[:end]`` ends consonant-vowel-consonant, the last not w, x or y."""
    return p.endswith("cvc", 0, end) and w[end - 1] not in "wxy"


def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w, p = word, _pattern(word)

    # Step 1a
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w, p = w[:-2], p[:-2]
        elif w[-2] != "s":
            w, p = w[:-1], p[:-1]

    # Step 1b
    if w.endswith(("ed", "ing")):
        if w.endswith("eed"):
            if p.count("vc", 0, len(p) - 3):
                w, p = w[:-1], p[:-1]
        else:
            end = len(w) - (2 if w[-1] == "d" else 3)
            if "v" in p[:end]:
                w, p = w[:end], p[:end]
                if w.endswith(("at", "bl", "iz")):
                    w, p = w + "e", p + "v"
                elif (len(w) >= 2 and w[-1] == w[-2] and p[-1] == "c"
                      and w[-1] not in "lsz"):
                    w, p = w[:-1], p[:-1]
                elif p.count("vc") == 1 and _ends_cvc(w, p, len(w)):
                    w, p = w + "e", p + "v"

    # Step 1c
    if w[-1] == "y" and "v" in p[:-1]:
        w, p = w[:-1] + "i", p[:-1] + "v"

    # Steps 2 and 3: replace the first listed suffix if its stem has m > 0.
    for table in (_STEP2, _STEP3):
        for suffix, repl, repl_p in table.get(w[-1], ()):
            if w.endswith(suffix):
                end = len(w) - len(suffix)
                if p.count("vc", 0, end):
                    w, p = w[:end] + repl, p[:end] + repl_p
                break

    # Step 4: drop the first listed suffix if its stem has m > 1.
    for suffix, _, _ in _STEP4.get(w[-1], ()):
        if w.endswith(suffix):
            end = len(w) - len(suffix)
            if p.count("vc", 0, end) > 1 and (suffix != "ion"
                                              or w[end - 1] in "st"):
                w, p = w[:end], p[:end]
            break

    # Step 5a
    if w[-1] == "e":
        end = len(w) - 1
        m = p.count("vc", 0, end)
        if m > 1 or (m == 1 and not _ends_cvc(w, p, end)):
            w, p = w[:end], p[:end]
    # Step 5b
    if w.endswith("ll") and p.count("vc") > 1:
        w = w[:-1]

    return w


@dataclass(frozen=True)
class Analyzer:
    """Index-side token pipeline: normalize, then optional filters."""

    stemming: bool = True
    stopwords: bool = True

    def __call__(self, raw: str) -> list[str]:
        """Analyzed tokens of ``raw``: the terms of its normalized tokens."""
        return [t for t in map(self.term, normalize(raw)) if t is not None]

    def term(self, token: str) -> str | None:
        """The term the normalized ``token`` indexes as: None for a
        stopword, else the token, stemmed if this analyzer stems."""
        if self.is_stopword(token):
            return None
        return porter_stem(token) if self.stemming else token

    def is_stopword(self, token: str) -> bool:
        """True iff this analyzer drops the normalized ``token``; it keeps
        every other token as one term."""
        return self.stopwords and token in STOPWORDS
