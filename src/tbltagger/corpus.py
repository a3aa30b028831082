"""Corpus data model: tagsets, tokens, sentences, tagged corpora; and the
package's file I/O: ``read_text``, ``write_text`` and ``work_dir``.

File formats are line oriented and UTF-8 throughout:
  - tagged corpus: one sentence per line, whitespace-separated ``word/TAG``
    items, the tag being everything after the LAST slash;
  - raw corpus: one sentence per line, whitespace-separated words;
  - tagset config: ``tag <NAME>`` and ``role <ROLEKEY> <NAME>`` lines,
    ``#`` starts a comment.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import shutil
import tempfile
import unicodedata
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional

REQUIRED_ROLES = ("FOREIGN", "PROPER_MASC_SG", "NOUN_FEM_SG")

_ITEM_RE = re.compile(r"\S+")


class TaggerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TaggerError):
    """Malformed input file. Given its 1-based ``line`` (and ``column``),
    the message starts with ``"line L: "`` (``"line L col C: "``); both
    stay readable as ``.line`` and ``.column``."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            col = "" if column is None else " col %d" % column
            message = "line %d%s: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.column = column


class TagsetError(ParseError):
    """A tag or role is missing from / inconsistent with the tagset."""


class AlignmentError(TaggerError):
    """Two corpora that should be token-aligned are not."""


class ModelError(TaggerError):
    """A model directory is missing files or internally inconsistent."""


def is_field(text) -> bool:
    """True if ``text`` survives as one field of a whitespace-split line
    of a UTF-8 file: non-empty, with no whitespace and no lone surrogate
    (which no UTF-8 file, and so no model file, can hold)."""
    if text.split() != [text]:
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_new_tag(name, tags, line=None):
    """Refuse ``name`` as the tag declared after ``tags``: an invalid name
    or a duplicate. ``line`` locates a tagset file's line."""
    # "-" stands for "no from_tag" in the LEXRULES file format
    if not is_field(name) or name == "-" or "/" in name:
        raise TagsetError("invalid tag name %r (empty, '-', whitespace, '/' "
                          "or a lone surrogate)" % name, line=line)
    if name in tags:
        raise TagsetError("duplicate tag %r" % name, line=line)


def _check_role(key, name, tags, line=None):
    """Refuse binding role ``key`` to tag ``name`` unless the key is a
    required role and ``tags`` declares the tag."""
    if key not in REQUIRED_ROLES:
        raise TagsetError("unknown role key %r" % key, line=line)
    if name not in tags:
        raise TagsetError("role %s bound to undeclared tag %r" % (key, name),
                          line=line)


class Tagset:
    """Finite tag inventory plus role bindings for the initial tagging rule.

    All three roles in REQUIRED_ROLES must be bound to declared tags; the
    initial rule chain resolves its branch targets through them.
    """

    def __init__(self, tags: Iterable[str], roles: dict):
        seen = []
        for t in tags:
            _check_new_tag(t, seen)
            seen.append(t)
        self.tags = tuple(seen)
        self._members = frozenset(seen)
        for key in REQUIRED_ROLES:
            if key not in roles:
                raise TagsetError("missing required role %s" % key)
        for key, t in roles.items():
            _check_role(key, t, self._members)
        self.roles = dict(roles)

    def __contains__(self, tag):
        return tag in self._members

    def check(self, tags, what="tag", line=None):
        """The one refusal of a tag outside the tagset: raise TagsetError
        ``"<what> 'X' not in tagset"``, located at ``line``, for the first
        tag X of ``tags`` that is not a member."""
        for tag in tags:
            if tag not in self._members:
                raise TagsetError("%s %r not in tagset" % (what, tag),
                                  line=line)

    def __len__(self):
        return len(self.tags)

    def __eq__(self, other):
        return (
            isinstance(other, Tagset)
            and self.tags == other.tags
            and self.roles == other.roles
        )

    def __repr__(self):
        return "Tagset(%d tags)" % len(self.tags)


@dataclass(frozen=True)
class Token:
    word: str
    tag: Optional[str] = None


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple
    tagset: Tagset = field(compare=False)

    def __post_init__(self):
        # one frozenset lookup per token; None is never a member
        members = self.tagset._members
        for sent in self.sentences:
            if not sent:
                raise TaggerError("empty sentence in corpus")
            for tok in sent:
                if tok.tag not in members:
                    if tok.tag is None:
                        raise TaggerError("untagged token %r in tagged corpus"
                                          % tok.word)
                    self.tagset.check((tok.tag,))

    @property
    def word_count(self):
        return sum(len(s) for s in self.sentences)

    def __len__(self):
        return len(self.sentences)


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: tuple  # sentence index -> fold id

    def __post_init__(self):
        if self.k < 2:
            raise TaggerError("k must be >= 2, got %d" % self.k)
        sizes = self.fold_sizes()
        if self.assignments and max(sizes) - min(sizes) > 1:
            raise TaggerError("fold sizes differ by more than one")

    def fold_sizes(self):
        sizes = [0] * self.k
        for f in self.assignments:
            sizes[f] += 1
        return sizes

    def fold_indices(self, fold_id):
        return [i for i, f in enumerate(self.assignments) if f == fold_id]


class Memo(dict):
    """key -> ``make(key)``, made on first use and kept."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _parse_item(item, lineno, line, index, tagset) -> Token:
    """The ``Token`` of ``item``, the ``index``-th item of ``line``."""
    word, sep, tag = item.rpartition("/")
    if not sep or not word or not tag:
        # only an error reports the column: that of the item's \S+ match
        col = next(islice(_ITEM_RE.finditer(line), index, None)).start() + 1
        message = ("item %r has no '/' separator" if not sep else
                   "empty word in %r" if not word else "empty tag in %r")
        raise ParseError(message % item, line=lineno, column=col)
    tagset.check((tag,), line=lineno)
    return Token(unicodedata.normalize("NFC", word), tag)


def parse_tagged_corpus(text: str, tagset: Tagset) -> TaggedCorpus:
    """Parse ``word/TAG`` lines into a TaggedCorpus; blank lines are skipped.

    The tag is taken after the last '/', so words may themselves contain
    slashes. Words are NFC-normalized. Each distinct item is checked and
    wrapped once per call: its occurrences share one ``Token``. A bad item
    is never kept, so its first occurrence raises with its line and column.
    """
    tokens = {}
    sentences = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        items = line.split()
        if not items:
            continue
        if not all(map(tokens.__contains__, items)):
            for index, item in enumerate(items):
                if item not in tokens:
                    tokens[item] = _parse_item(item, lineno, line, index,
                                               tagset)
        sentences.append(tuple(map(tokens.__getitem__, items)))
    return TaggedCorpus(tuple(sentences), tagset)


def serialize_tagged_corpus(corpus: TaggedCorpus) -> str:
    lines = [" ".join("%s/%s" % (t.word, t.tag) for t in s) for s in corpus.sentences]
    return "".join(line + "\n" for line in lines)


def tagged_lines(tag_words, sentences):
    """One ``word/TAG`` line per sentence of words, tagged by ``tag_words``
    (the lines of ``serialize_tagged_corpus``)."""
    for words in sentences:
        yield " ".join(map("/".join, zip(words, tag_words(words)))) + "\n"


def raw_sentences(text: str):
    """The words of untagged one-sentence-per-line text: one tuple of the
    ``str.split()`` words of each non-blank line, yielded as the line is
    reached; no tokenization beyond whitespace splitting. This is the one
    raw line splitter. The text is NFC-normalized once, as a whole, which
    equals normalizing each word: no canonical composition, decomposition
    or reordering crosses a whitespace character, since every whitespace
    character has combining class 0 and the only canonical decompositions
    that hold one (U+2000 -> U+2002, U+2001 -> U+2003) map whitespace to
    whitespace."""
    for line in unicodedata.normalize("NFC", text).splitlines():
        words = line.split()
        if words:
            yield tuple(words)


def parse_raw_corpus(text: str) -> list:
    """``raw_sentences`` as a list of untagged ``Token`` tuples: each
    distinct normalized word is wrapped once per call, and its occurrences
    share that ``Token``."""
    tokens = Memo(Token)
    return [tuple(map(tokens.__getitem__, words))
            for words in raw_sentences(text)]


def read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8: %s" % (path, exc)) from exc


def write_text(path, chunks) -> None:
    """The package's one text writer: the chunks, in UTF-8, to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


@contextlib.contextmanager
def work_dir(path):
    """A private directory beside ``path``, removed with its contents on
    exit: every file and model directory the package writes is built in
    one and renamed to ``path``, so a crash leaves only ``.tbltagger-*``.
    ``path``'s directory must exist: none is made. An ``OSError`` raised
    meanwhile is raised again, with its class and errno, naming ``path``."""
    try:
        work = tempfile.mkdtemp(prefix=".tbltagger-",
                                dir=os.path.dirname(os.path.abspath(path)))
        try:
            yield work
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def write_atomically(path, chunks) -> None:
    """Write the text chunks to ``path`` through ``work_dir(path)``; the
    file gets the mode that ``open`` gives under the umask."""
    with work_dir(path) as work:
        tmp = os.path.join(work, "file")
        write_text(tmp, chunks)
        os.replace(tmp, path)


def load_tagset(text: str) -> Tagset:
    tags = []
    roles = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "tag" and len(fields) == 2:
            _check_new_tag(fields[1], tags, line=lineno)
            tags.append(fields[1])
        elif fields[0] == "role" and len(fields) == 3:
            _check_role(fields[1], fields[2], tags, line=lineno)
            roles[fields[1]] = fields[2]
        else:
            raise ParseError("unrecognized tagset line %r" % line, line=lineno)
    return Tagset(tags, roles)


def serialize_tagset(tagset: Tagset) -> str:
    lines = ["tag %s" % t for t in tagset.tags]
    lines += ["role %s %s" % (k, tagset.roles[k]) for k in REQUIRED_ROLES]
    return "".join(line + "\n" for line in lines)


def kfold_split(corpus: TaggedCorpus, k: int, seed: int) -> FoldPlan:
    """Assign sentences to k folds: seeded shuffle of indices, then
    round-robin. Fold sizes differ by at most one."""
    n = len(corpus.sentences)
    if k < 2:
        raise TaggerError("k must be >= 2, got %d" % k)
    if n < k:
        raise TaggerError("corpus has %d sentences, fewer than k=%d" % (n, k))
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignments = [0] * n
    for pos, idx in enumerate(order):
        assignments[idx] = pos % k
    return FoldPlan(k, tuple(assignments))


def select_sentences(corpus: TaggedCorpus, indices) -> TaggedCorpus:
    return TaggedCorpus(tuple(corpus.sentences[i] for i in indices), corpus.tagset)


def truncate_to_words(corpus: TaggedCorpus, n_words: int) -> TaggedCorpus:
    """Longest sentence prefix with total word count <= n_words; a first
    sentence longer than n_words is returned whole (sentences never split)."""
    if n_words < 1:
        raise TaggerError("n_words must be >= 1, got %d" % n_words)
    out = []
    total = 0
    for sent in corpus.sentences:
        if out and total + len(sent) > n_words:
            break
        out.append(sent)
        total += len(sent)
        if total >= n_words:
            break
    return TaggedCorpus(tuple(out), corpus.tagset)
