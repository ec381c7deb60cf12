"""The Porter stemming algorithm (Porter, 1980), from scratch.

Used by the tf-idf baseline (the paper stems via Gensim, SS8.2) and by
the vocabulary builder.  This is a faithful implementation of the
original five-step algorithm; the test suite pins the classic
reference examples (caresses -> caress, ponies -> poni, relational ->
relat, ...).

:func:`porter_stem` is a pure function of its argument, and a corpus
repeats the same few thousand words over and over (Zipf), so it is
memoised.  The memo is an LRU of :data:`STEM_CACHE_SIZE` entries: it
holds the working vocabulary but never grows with the corpus, which
keeps the ingestion plane's memory bounded.
"""

from __future__ import annotations

import functools

#: Entries in :func:`porter_stem`'s LRU memo.  An entry holds a word, its
#: stem and a link node, about 200 bytes for an ordinary word, so a full
#: memo stays near 3 MB.
STEM_CACHE_SIZE = 1 << 14

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The 'measure' m: the number of VC sequences in the stem."""
    pattern = []
    for i in range(len(stem)):
        c = _is_consonant(stem, i)
        if not pattern or pattern[-1] != c:
            pattern.append(c)
    # pattern is like [C?, V, C, V, C, ...]; count VC pairs.
    m = 0
    for i in range(len(pattern) - 1):
        if not pattern[i] and pattern[i + 1]:
            m += 1
    return m


def _contains_vowel(stem: str) -> bool:
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
    if (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return word[-1] not in "wxy"
    return False


def _replace_suffix(word: str, suffix: str, replacement: str, m_min: int) -> str | None:
    """Replace suffix if present and the stem's measure exceeds m_min."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > m_min:
        return stem + replacement
    return word


_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    """Stem one lowercase word (memoised; see :data:`STEM_CACHE_SIZE`)."""
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b: -ed and -ing.
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            word = word[:-1]
    else:
        cleaned = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            cleaned = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            cleaned = word[:-3]
        if cleaned is not None:
            word = cleaned
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c: y -> i.
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2.
    for suffix, replacement in _STEP2_RULES:
        if word.endswith(suffix):
            out = _replace_suffix(word, suffix, replacement, 0)
            if out is not None:
                word = out
            break

    # Step 3.
    for suffix, replacement in _STEP3_RULES:
        if word.endswith(suffix):
            out = _replace_suffix(word, suffix, replacement, 0)
            if out is not None:
                word = out
            break

    # Step 4: drop suffixes when m > 1.
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                word = stem
            break
    else:
        if word.endswith("ion") and _measure(word[:-3]) > 1 and word[-4] in "st":
            word = word[:-3]

    # Step 5a: drop trailing e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b: -ll -> -l when m > 1.
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
