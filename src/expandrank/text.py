"""Text normalization and analysis.

Two layers are deliberately kept apart:

* ``normalize`` is the answer-matching convention: lowercase, NFKC, split on
  non-alphanumeric boundaries.  No stemming, no stopword removal — answer
  strings like dates must survive verbatim.
* ``Analyzer`` is the indexing convention: ``normalize`` plus optional English
  stopword removal and Porter stemming.  Queries and documents must go through
  the same analyzer or scores are meaningless.
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
    """Lowercase, NFKC-normalize, and split on non-alphanumeric boundaries."""
    folded = unicodedata.normalize("NFKC", raw).lower()
    return _TOKEN_RE.findall(folded)


# ---------------------------------------------------------------------------
# Porter stemmer (Porter, 1980).  Plain implementation of the five steps;
# operates on already-lowercased tokens.
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences in the [C](VC)^m[V] decomposition."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # Step 1b
    flag_1b = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        flag_1b = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        flag_1b = True
    if flag_1b:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    step2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
        ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
        ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
        ("iviti", "ive"), ("biliti", "ble"),
    )
    for suffix, repl in step2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 3
    step3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )
    for suffix, repl in step3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 4
    step4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
    for suffix in step4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                w = stem
            break
    else:
        if w.endswith("ion") and len(w) > 3:
            stem = w[:-3]
            if stem.endswith(("s", "t")) and _measure(stem) > 1:
                w = stem

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w


@dataclass(frozen=True)
class Analyzer:
    """Index-side token pipeline: normalize, then optional filters."""

    stemming: bool = True
    stopwords: bool = True

    def __call__(self, raw: str, memo: dict[str, str] | None = None) -> list[str]:
        """Analyzed tokens of ``raw``.

        ``memo`` is a surface -> stem dict owned by the caller.  Passing the
        same one across calls stems each distinct surface token once; the
        output is identical to a call without it.
        """
        tokens = normalize(raw)
        if self.stopwords:
            tokens = [t for t in tokens if t not in STOPWORDS]
        if self.stemming:
            if memo is None:
                tokens = [porter_stem(t) for t in tokens]
            else:
                for t in set(tokens).difference(memo):
                    memo[t] = porter_stem(t)
                tokens = list(map(memo.__getitem__, tokens))
        return tokens
