"""Frequency lexicon and the initial (default-rule) tagger.

The lexicon maps each word type seen in training to its tags ordered by
descending frequency; the head of that list is the initial tag for known
words. An unknown word gets the tag of the role its script class maps to
in the initial rule chain, which holds one branch per class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .corpus import ParseError, TaggedCorpus, TaggerError, Tagset

LATIN_START = "LATIN_START"
GREEK_CAPITAL_START = "GREEK_CAPITAL_START"
OTHER = "OTHER"

# (script class, role key) per class of ``classify_script``: the only chain
_DEFAULT_BRANCHES = ((LATIN_START, "FOREIGN"),
                     (GREEK_CAPITAL_START, "PROPER_MASC_SG"),
                     (OTHER, "NOUN_FEM_SG"))

# Uppercase Greek letters, including accented capitals and dialytika forms.
_GREEK_CAPITALS = frozenset(
    chr(c) for c in range(0x0391, 0x03AA) if c != 0x03A2
) | frozenset("ΆΈΉΊΌΎΏΪΫ")

# Python's limit on the digits of an int converted to text is never below
# 640 (sys.int_info.str_digits_check_threshold), so smaller counts always
# serialize.
_WRITABLE_BELOW = 10 ** 640


class Lexicon:
    """word type -> ((tag, count), ...) ordered by count desc, tag name asc."""

    def __init__(self, entries: dict):
        cleaned = {}
        for word, pairs in entries.items():
            pairs = tuple(pairs)
            if not pairs:
                raise TaggerError("empty entry for word %r" % word)
            for _, count in pairs:
                if not isinstance(count, int) or count <= 0:
                    raise TaggerError("count in entry for %r is not a positive "
                                      "integer" % word)
                if count >= _WRITABLE_BELOW:
                    try:
                        "%d" % count
                    except ValueError as exc:
                        # more digits than the interpreter converts to
                        # text, so serialize_lexicon could not write it
                        raise TaggerError("count in entry for %r is too "
                                          "long" % word) from exc
            if (len(pairs) > 1 and list(pairs)
                    != sorted(pairs, key=lambda p: (-p[1], p[0]))):
                raise TaggerError("entry for %r not in frequency order" % word)
            cleaned[word] = pairs
        self.entries = cleaned

    def __contains__(self, word):
        return word in self.entries

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Lexicon) and self.entries == other.entries

    def most_frequent_tag(self, word):
        return self.entries[word][0][0]


@dataclass(frozen=True)
class InitialRuleChain:
    """(script class, role key) branches, one per class of
    ``classify_script``. Only the default ones are accepted, since the
    model directory does not store a chain."""

    branches: tuple

    def __post_init__(self):
        if self.branches != _DEFAULT_BRANCHES:
            raise TaggerError("the initial rule chain must hold the default "
                              "branches, got %r" % (self.branches,))


def default_greek_chain() -> InitialRuleChain:
    """Latin-initial -> foreign word; Greek-capital-initial -> masculine
    proper noun; anything else -> feminine noun."""
    return InitialRuleChain(_DEFAULT_BRANCHES)


def build_lexicon(corpus: TaggedCorpus) -> Lexicon:
    if not corpus.sentences:
        raise TaggerError("cannot build a lexicon from an empty corpus")
    counts = Counter(map(attrgetter("word", "tag"),
                         chain.from_iterable(corpus.sentences)))
    by_word = {}
    for (word, tag), count in counts.items():
        by_word.setdefault(word, []).append((tag, count))
    return Lexicon({word: tuple(sorted(pairs, key=lambda p: (-p[1], p[0])))
                    for word, pairs in by_word.items()})


def classify_script(word: str) -> str:
    if not word:
        raise TaggerError("cannot classify an empty word")
    first = word[0]
    if ("a" <= first <= "z") or ("A" <= first <= "Z"):
        return LATIN_START
    if first in _GREEK_CAPITALS:
        return GREEK_CAPITAL_START
    return OTHER


def start_tags(chain: InitialRuleChain, tagset: Tagset) -> dict:
    """script class -> the starting tag of an unknown word of that class:
    the tag of the role that the chain's branch for the class names."""
    return {script: tagset.roles[key] for script, key in chain.branches}


def initial_tag(word: str, lexicon: Lexicon, chain: InitialRuleChain,
                tagset: Tagset) -> str:
    """Most frequent lexicon tag for known words; otherwise the starting
    tag of the word's script class (``start_tags``)."""
    if word in lexicon:
        return lexicon.most_frequent_tag(word)
    return start_tags(chain, tagset)[classify_script(word)]


def serialize_lexicon(lexicon: Lexicon) -> str:
    lines = []
    for word in sorted(lexicon.entries):
        pairs = " ".join("%s:%d" % (t, c) for t, c in lexicon.entries[word])
        lines.append("%s %s\n" % (word, pairs))
    return "".join(lines)


def _parse_pair(item, lineno, tagset):
    """The ``(tag, count)`` of one ``tag:count`` item on line ``lineno``."""
    tag, sep, count = item.rpartition(":")
    # ASCII digits only: str.isdigit() also accepts "²" and "١"
    if not sep or not tag or not count.isascii() or not count.isdigit():
        raise ParseError("malformed tag:count item %r" % item, line=lineno)
    tagset.check((tag,), line=lineno)
    try:
        count = int(count)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError("count too long in %r" % item[:40],
                         line=lineno) from exc
    if count <= 0:
        raise ParseError("non-positive count in %r" % item, line=lineno)
    return tag, count


def parse_lexicon(text: str, tagset: Tagset) -> Lexicon:
    """Each distinct ``tag:count`` item is checked once per call. A bad
    item is never kept, so its first occurrence raises with its line."""
    entries = {}
    pairs_of = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 2:
            raise ParseError("lexicon entry needs word and tag:count pairs",
                             line=lineno)
        word, pairs = fields[0], []
        for item in fields[1:]:
            pair = pairs_of.get(item)
            if pair is None:
                pair = pairs_of[item] = _parse_pair(item, lineno, tagset)
            pairs.append(pair)
        if word in entries:
            raise ParseError("duplicate lexicon word %r" % word, line=lineno)
        entries[word] = tuple(pairs)
    return Lexicon(entries)
