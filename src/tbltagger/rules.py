"""Transformation rules: lexical (word-form) and contextual (window) rules,
their application semantics, the tagging pipeline and model persistence.

Lexical rules operate on word types and fire only for words absent from the
lexicon; contextual rules operate on individual tokens, scanning each
sentence left to right with immediate effect, sentences independent.
Out-of-bounds context never matches (no sentinel tags).

``CONTEXT_TABLE`` defines the contextual templates once; their arity, the
word templates, the context window and rule application are derived from
it. ``rewrite_sentence`` is the one application of a contextual rule: it
visits the from_tag positions it is given, with the context walk inline.
``LEXICAL_TABLE`` defines the lexical templates once; the rule index, the
learner's candidates, the rule check and ``remainder_known`` derive from it.

A model compiles its ``Tagger`` once (``TaggerModel.tagger``).
``Tagger.tag_words``, which maps one sentence's words to their final tags,
is the one tagging path: ``tag_corpus`` wraps its tags in ``Token``s, while
the ``tag`` and ``eval`` commands and the cross-validation folds write and
count the tag lists as they are. The tagger maps known words to their
lexicon tag and memoises the tag of each unknown word type it has seen.
The contextual rules run as one left-to-right transducer, built lazily
and memoised: each rule is a FIFO stage that decides a position with
``rewrite_sentence`` once it has read the context to the right, and a
sentence read in known states costs one lookup per token. ``tag_corpus``
reuses one memoised ``Token`` per word for every output token that keeps
its word's starting tag.
The tagger's tag memo is the one source of starting tags: ``tag_words``
reads it, and the learner starts contextual training from
``Tagger.initial``, which reads it too. Tagging and training share
``rewrite_sentence`` and ``LexicalRuleIndex``, which files each lexical
rule under its key, so that a word is checked only against the rules it
can match; ``apply_lexical_rules`` runs through it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .corpus import (Memo, ModelError, ParseError, TaggedCorpus, TaggerError,
                     Tagset, Token, is_field, load_tagset, read_text,
                     serialize_tagset, work_dir, write_text)
from .lexicon import (InitialRuleChain, Lexicon, classify_script,
                      default_greek_chain, parse_lexicon, serialize_lexicon,
                      start_tags)

WORDS, TAGS = "words", "tags"

# template -> (what it reads, alternatives). Each alternative holds one
# offset per argument; the context holds at a position when, for any one
# alternative, the word or tag at every offset equals its argument.
CONTEXT_TABLE = {
    "PREVTAG": (TAGS, ((-1,),)),
    "NEXTTAG": (TAGS, ((1,),)),
    "PREV2TAG": (TAGS, ((-2,),)),
    "NEXT2TAG": (TAGS, ((2,),)),
    "PREV1OR2TAG": (TAGS, ((-1,), (-2,))),
    "NEXT1OR2TAG": (TAGS, ((1,), (2,))),
    "PREV1OR2OR3TAG": (TAGS, ((-1,), (-2,), (-3,))),
    "NEXT1OR2OR3TAG": (TAGS, ((1,), (2,), (3,))),
    "PREVWD": (WORDS, ((-1,),)),
    "NEXTWD": (WORDS, ((1,),)),
    "SURROUNDTAG": (TAGS, ((-1, 1),)),
    "PREVBIGRAM": (TAGS, ((-2, -1),)),
    "NEXTBIGRAM": (TAGS, ((1, 2),)),
}

# template -> arity of its argument list
CONTEXTUAL_TEMPLATES = {template: len(alternatives[0])
                        for template, (_, alternatives) in CONTEXT_TABLE.items()}

WORD_TEMPLATES = frozenset(template for template, (reads, _)
                           in CONTEXT_TABLE.items() if reads == WORDS)

# the farthest any template reads from the token it retags
CONTEXT_WINDOW = max(abs(offset) for _, alternatives in CONTEXT_TABLE.values()
                     for offsets in alternatives for offset in offsets)

SUFFIX, PREFIX, CHAR, ADDED_SUFFIX, ADDED_PREFIX = (
    "suffix", "prefix", "char", "added suffix", "added prefix")

# template -> (the key a word must hold, whether the word minus the affix
# must be a non-empty lexicon entry). A word holds the arg as a suffix,
# prefix or char key when it ends with, starts with or contains it, and
# as an added suffix or prefix key when adding it gives a lexicon entry.
# A char key takes one character.
LEXICAL_TABLE = {
    "ADDPREF": (ADDED_PREFIX, False),
    "ADDSUF": (ADDED_SUFFIX, False),
    "DELETEPREF": (PREFIX, True),
    "DELETESUF": (SUFFIX, True),
    "HASCHAR": (CHAR, False),
    "HASPREF": (PREFIX, False),
    "HASSUF": (SUFFIX, False),
}

LEXICAL_TEMPLATES = tuple(LEXICAL_TABLE)

MODEL_FILES = ("TAGSET", "LEXICON", "LEXRULES", "CTXRULES", "MANIFEST")
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LexicalRule:
    template: str
    arg: str
    from_tag: Optional[str]  # None = unconditioned on the current tag
    to_tag: str

    def __post_init__(self):
        if self.template not in LEXICAL_TEMPLATES:
            raise TaggerError("unknown lexical template %r" % self.template)
        if not is_field(self.arg):
            raise TaggerError("lexical rule argument must be non-empty and "
                              "free of whitespace and lone surrogates, got "
                              "%r" % (self.arg,))
        if LEXICAL_TABLE[self.template][0] == CHAR and len(self.arg) != 1:
            raise TaggerError("%s takes one character" % self.template)
        if self.from_tag is not None and self.from_tag == self.to_tag:
            raise TaggerError("lexical rule from_tag equals to_tag")


@dataclass(frozen=True)
class ContextualRule:
    template: str
    args: tuple
    from_tag: str
    to_tag: str

    def __post_init__(self):
        arity = CONTEXTUAL_TEMPLATES.get(self.template)
        if arity is None:
            raise TaggerError("unknown contextual template %r" % self.template)
        if len(self.args) != arity:
            raise TaggerError("%s takes %d args, got %d"
                              % (self.template, arity, len(self.args)))
        for arg in self.args:
            if not is_field(arg):
                raise TaggerError("contextual rule argument must be non-empty "
                                  "and free of whitespace and lone "
                                  "surrogates, got %r" % (arg,))
        if self.from_tag == self.to_tag:
            raise TaggerError("contextual rule from_tag equals to_tag")

    @cached_property
    def checks(self):
        """``context_checks`` of this rule, built once."""
        return context_checks(self.template, self.args)


def remainder_known(template: str, arg: str, word: str,
                    lexicon: Lexicon) -> bool:
    """True if ``word`` minus the suffix (DELETESUF) or prefix (DELETEPREF)
    ``arg`` is a non-empty lexicon entry; the caller has found the key."""
    return len(word) > len(arg) and (
        word[:-len(arg)] if LEXICAL_TABLE[template][0] == SUFFIX
        else word[len(arg):]) in lexicon.entries


class LexicalRuleIndex:
    """Lexical rules compiled once, each indexed by the key a word must
    hold for the rule to match (``LEXICAL_TABLE``; the rule indexing of
    fnTBL, Ngai & Florian 2001). Suffix and prefix keys are looked up by
    the word's affix of each argument length. The other keys are probed
    once per distinct argument, so compiling reads no lexicon entry. Every
    template's match implies its key, so the rules whose keys a word holds
    include every rule that matches it: the index is an exact pre-filter.
    ``apply`` visits only those rules, in rule order, and checks each
    one's from_tag against the running tag. The key of a template that
    does not delete is its match: a suffix, prefix or character the word
    holds, or the lexicon probe of an added affix. Only the deleting
    templates also need the remainder in the lexicon, so only their
    matches are confirmed, by ``remainder_known``."""

    def __init__(self, rules, lexicon: Lexicon):
        # per rule: template, arg, from_tag, to_tag, whether it deletes
        self.rules = tuple((rule.template, rule.arg, rule.from_tag,
                            rule.to_tag, LEXICAL_TABLE[rule.template][1])
                           for rule in rules)
        self.lexicon = lexicon
        # key kind -> key -> ascending indices of the rules it admits
        keys = {kind: {} for kind, _ in LEXICAL_TABLE.values()}
        for i, (template, arg, _, _, _) in enumerate(self.rules):
            keys[LEXICAL_TABLE[template][0]].setdefault(arg, []).append(i)
        self.suffixes, self.prefixes = keys[SUFFIX], keys[PREFIX]
        self.suffix_lengths = sorted({len(arg) for arg in self.suffixes})
        self.prefix_lengths = sorted({len(arg) for arg in self.prefixes})
        self.chars = tuple(keys[CHAR].items())
        self.add_pref = tuple(keys[ADDED_PREFIX].items())
        self.add_suf = tuple(keys[ADDED_SUFFIX].items())

    def candidates(self, word: str) -> list:
        """Ascending indices of the rules whose keys ``word`` holds."""
        found = []
        n = len(word)
        suffixes = self.suffixes
        for k in self.suffix_lengths:
            if k > n:
                break
            found += suffixes.get(word[-k:], ())
        prefixes = self.prefixes
        for k in self.prefix_lengths:
            if k > n:
                break
            found += prefixes.get(word[:k], ())
        for char, indices in self.chars:
            if char in word:
                found += indices
        entries = self.lexicon.entries
        for arg, indices in self.add_pref:
            if arg + word in entries:
                found += indices
        for arg, indices in self.add_suf:
            if word + arg in entries:
                found += indices
        found.sort()
        return found

    def apply(self, word: str, tag: str) -> str:
        """The tag of ``word`` after the rules in order, starting from
        ``tag``."""
        rules = self.rules
        for i in self.candidates(word):
            template, arg, from_tag, to_tag, deletes = rules[i]
            if ((from_tag is None or from_tag == tag)
                    and (not deletes
                         or remainder_known(template, arg, word,
                                            self.lexicon))):
                tag = to_tag
        return tag


def apply_lexical_rules(rules, assignments: dict, lexicon: Lexicon) -> dict:
    """Apply rules in order to a word-type -> tag map for unknown words.
    Later rules see earlier rules' retagging. A rule's match depends on
    the word alone, so each word runs through the rules on its own, by
    ``LexicalRuleIndex.apply``."""
    index = LexicalRuleIndex(rules, lexicon)
    return {word: index.apply(word, tag) for word, tag in assignments.items()}


def lexical_candidate_features(words, lexicon: Lexicon,
                               max_affix_len: int) -> dict:
    """word -> all (template, arg) pairs that match it, in ``LEXICAL_TABLE``
    order, for each of ``words`` in the order given: each template's args
    are the keys of its kind the word holds (its affixes up to
    max_affix_len, its characters, the affixes whose addition gives a
    lexicon entry), those of the templates that delete kept where
    ``remainder_known`` finds the remainder in the lexicon. One pass over the
    lexicon lists the added affixes, kept only for the words asked
    about."""
    words = dict.fromkeys(words)
    add_suf = {word: [] for word in words}
    add_pref = {word: [] for word in words}
    for other in lexicon.entries:
        for k in range(1, min(max_affix_len, len(other) - 1) + 1):
            if other[:-k] in add_suf:
                add_suf[other[:-k]].append(other[-k:])
            if other[k:] in add_pref:
                add_pref[other[k:]].append(other[:k])
    features = {}
    for word in words:
        lengths = range(1, min(max_affix_len, len(word)) + 1)
        keys = {SUFFIX: [word[-k:] for k in lengths],
                PREFIX: [word[:k] for k in lengths], CHAR: sorted(set(word)),
                ADDED_SUFFIX: add_suf[word], ADDED_PREFIX: add_pref[word]}
        features[word] = tuple(
            (template, arg)
            for template, (key, deletes) in LEXICAL_TABLE.items()
            for arg in keys[key]
            if not deletes or remainder_known(template, arg, word, lexicon))
    return features


def context_checks(template: str, args: tuple):
    """(reads words, alternatives) of a template instantiated with ``args``:
    each alternative is a tuple of (offset, arg) pairs, all of which must
    hold for it to match. Args may be names or integer codes."""
    reads, alternatives = CONTEXT_TABLE[template]
    return (reads == WORDS,
            tuple(tuple(zip(offsets, args)) for offsets in alternatives))


def context_args(checks) -> frozenset:
    """The tags the context of ``checks`` reads: every arg of a tag
    template (each alternative in ``CONTEXT_TABLE`` holds one offset per
    arg), none of a word template.

    This is the one filter of what a rule can change: a rule can first
    match only in a sentence, or a tagger stage's window, holding its
    from_tag and each of these tags, since a match needs one alternative
    to hold in full and ``rewrite_sentence`` reads the sentence as given
    up to the first match. Learning skips the other sentences, and a
    stage decides the other windows without calling it."""
    reads_words, alternatives = checks
    return frozenset(arg for _, arg in alternatives[0] if not reads_words)


def rewrite_sentence(checks, to_tag, words, tags, positions):
    """(new tags, moved positions) of one sentence after applying a rule
    whose context is ``checks`` (see ``context_checks``) at ``positions``,
    the ascending positions that hold its from_tag. They are visited left
    to right, and a change at one position is visible at later ones;
    context out of bounds never matches. ``tags`` is left unchanged, and
    the new tags are None when nothing moved. A ``to_tag`` equal to the
    from_tag changes nothing, so the positions moved are then those whose
    context holds in ``tags`` as given. Tags may be names or integer
    codes."""
    reads_words, alternatives = checks
    seq = words if reads_words else tags
    n = len(tags)
    new = None
    moved = []
    for pos in positions:
        for alternative in alternatives:
            for offset, arg in alternative:
                q = pos + offset
                if q < 0 or q >= n or seq[q] != arg:
                    break
            else:
                break
        else:
            continue
        if new is None:
            new = list(tags)
            if not reads_words:
                seq = new
        new[pos] = to_tag
        moved.append(pos)
    return new, moved


def apply_contextual_rule(rule: ContextualRule, words, tags) -> None:
    """One left-to-right pass over a single sentence, mutating ``tags``;
    a change at position i is visible at positions > i."""
    from_tag = rule.from_tag
    new, _ = rewrite_sentence(
        rule.checks, rule.to_tag, words, tags,
        [pos for pos, tag in enumerate(tags) if tag == from_tag])
    if new is not None:
        tags[:] = new


def apply_contextual_rules(rules, corpus_state) -> None:
    """Apply rules in order to a list of (words, tags) sentence states,
    mutating the tag lists in place."""
    for rule in rules:
        for words, tags in corpus_state:
            apply_contextual_rule(rule, words, tags)


@dataclass(frozen=True)
class TaggerModel:
    tagset: Tagset
    lexicon: Lexicon
    initial_chain: InitialRuleChain
    lexical_rules: tuple
    contextual_rules: tuple

    def __post_init__(self):
        if not isinstance(self.initial_chain, InitialRuleChain):
            raise TaggerError("initial_chain must be an InitialRuleChain, "
                              "got %r" % (self.initial_chain,))
        self.tagset.check((tag for rule in (*self.lexical_rules,
                                            *self.contextual_rules)
                           for tag in (rule.from_tag, rule.to_tag)
                           if tag is not None), what="rule tag")
        for word in self.lexicon.entries:
            if not is_field(word):
                raise TaggerError("lexicon word %r is empty or holds "
                                  "whitespace or a lone surrogate" % (word,))
        self.tagset.check((tag for pairs in self.lexicon.entries.values()
                           for tag, _ in pairs), what="lexicon tag")

    @cached_property
    def tagger(self) -> "Tagger":
        """The ``Tagger`` of this model, built once."""
        return Tagger(self)


# the symbol read past a sentence's end: no word, tag or argument is empty
_END = ""
# the states past which a tagger builds its transducer again
MAX_STATES = 1 << 14
# the most parts one ``_Cascade`` runs in a row
CASCADE_WIDTH = 3


def _split(symbol) -> tuple:
    """(word or None, tag) of a transducer symbol (see ``Tagger``)."""
    return symbol if type(symbol) is tuple else (None, symbol)


class _Machine:
    """A transducer built lazily. ``keys`` holds its states, numbered by
    ``ids`` so that no machine holds a reference cycle; ``_build`` fills
    ``table[state][symbol]`` = (next state, symbols emitted) from ``read``
    once."""

    def __init__(self, start):
        self.keys, self.ids, self.table = [start], {start: 0}, [{}]

    def _build(self, state: int, symbol) -> tuple:
        key, emitted = self.read(self.keys[state], symbol)
        if key not in self.ids:
            self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.table.append({})
        step = self.table[state][symbol] = self.ids[key], emitted
        return step


class _Stage(_Machine):
    """One contextual rule as a FIFO stage of ``Tagger``'s transducer.

    Its key is (history, pending): its last ``left`` outputs, each reduced
    to the argument of the rule it equals or None (``view``), and the
    symbols read but not yet decided, where ``left`` and ``right`` are the
    template's reach in ``CONTEXT_TABLE``. A symbol without the from_tag is
    decided as it is read, so pending symbols start with one that holds it
    and number at most ``right``. Before the sentence the history holds
    None, and past it the stage reads ``_END``, whose view is None too:
    like context out of bounds, it never matches."""

    def __init__(self, rule: ContextualRule):
        self.rule = rule
        reads_words, alternatives = rule.checks
        offsets = [offset for alternative in alternatives
                   for offset, _ in alternative]
        self.left, self.right = -min(0, *offsets), max(0, *offsets)
        self.reads = 0 if reads_words else 1
        self.context = context_args(rule.checks)
        super().__init__(((None,) * self.left, ()))

    def view(self, symbol):
        """The word or tag of ``symbol`` the rule reads, if an argument."""
        value = _split(symbol)[self.reads]
        return value if value in self.rule.args else None

    def read(self, key, symbol) -> tuple:
        """Emit, in order, each pending symbol decided. One that holds the
        from_tag is decided once ``right`` symbols follow it, by
        ``rewrite_sentence`` over the window of the history and the pending
        symbols if it holds each tag the context reads (``context_args``)."""
        (history, pending), rule, emitted = key, self.rule, ()
        pending += (symbol,)
        while pending:
            symbol = pending[0]
            word, tag = _split(symbol)
            if tag == rule.from_tag:
                if len(pending) <= self.right:
                    break
                # the window holds what the rule reads, words or tags
                window = history + tuple(map(self.view, pending))
                if self.context.issubset(window) and rewrite_sentence(
                        rule.checks, rule.to_tag, window, window,
                        [self.left])[1]:
                    symbol = (word, rule.to_tag) if word else rule.to_tag
            emitted += (symbol,)
            history = (history + (self.view(symbol),))[1:]
            pending = pending[1:]
        return (history, pending), emitted


class _Cascade(_Machine):
    """Stages in a row, each reading what the one before it emits, run as
    a tree: at most ``CASCADE_WIDTH`` parts, each a stage or a cascade, so
    that a transition is built from those of parts with fewer states. The
    key holds one state per part."""

    def __init__(self, stages: tuple):
        size = -(-len(stages) // CASCADE_WIDTH)
        self.parts = tuple(part[0] if len(part) == 1 else _Cascade(part)
                           for part in (stages[i:i + size] for i
                                        in range(0, len(stages), size)))
        super().__init__((0,) * len(self.parts))

    def read(self, key, symbol) -> tuple:
        key, emitted = list(key), (symbol,)
        for i, part in enumerate(self.parts):
            table, out = part.table, ()
            for symbol in emitted:
                key[i], symbols = (table[key[i]].get(symbol)
                                   or part._build(key[i], symbol))
                out += symbols
            emitted = out
            if not emitted:
                break
        return tuple(key), emitted


class Tagger:
    """A model's tagging pipeline, built once per model (``model.tagger``).

    ``tags`` maps each known word to its most frequent lexicon tag, and
    each unknown word type already seen to its tag after the initial rule
    chain and the lexical rules. That tag is a pure function of the word
    and the model, so the memo is exact; it grows with the distinct
    unknown types tagged. A new unknown type goes through the model's
    ``LexicalRuleIndex``, compiled here once, which visits only the
    lexical rules whose keys the word holds. This memo is the one source
    of starting tags, for ``tag_words`` and, through ``initial``, the
    learner.

    ``tag_words`` is the one tagging path: it maps one sentence's words to
    their final tags, and ``tag`` is a loop over it. The contextual rules
    run as one deterministic left-to-right transducer (Roche & Schabes
    1995), ``machine``, the ``_Cascade`` of the rules' ``_Stage``s, read
    once per token. A symbol is a token's starting tag, paired with the
    word only if it is an argument of a word template, so the alphabet is
    finite. A tag is emitted once every stage has decided it, so a state
    holds only tokens that wait for context to the right; ``ends`` pushes
    the last ones out. The stages' memos are bounded, as their keys and
    symbols are; between sentences, a ``machine`` of over ``MAX_STATES``
    states is built again. ``tokens`` memoises, per word, the ``Token``
    of its starting tag; an output token of ``tag`` whose tag is its
    word's starting tag is that one object, which is exact because
    ``Token`` is frozen. The other memos are never emptied."""

    def __init__(self, model: TaggerModel):
        lexicon, chain = model.lexicon, model.initial_chain
        tagset = self.tagset = model.tagset
        lexical_rules = LexicalRuleIndex(model.lexical_rules, lexicon)
        # the memos' makers hold no reference to the tagger: no cycle.
        # Known words are filled in below, so the tag memo's maker sees
        # only unknown words and probes no lexicon.
        start = start_tags(chain, tagset)
        tags = self.tags = Memo(lambda word: lexical_rules.apply(
            word, start[classify_script(word)]))
        tags.update((word, pairs[0][0])
                    for word, pairs in lexicon.entries.items())
        self.tokens = Memo(lambda word: Token(word, tags[word]))
        self.stages = tuple(map(_Stage, model.contextual_rules))
        self.ends = (_END,) * max((stage.right for stage in self.stages),
                                  default=0)
        self.machine = self.stages and _Cascade(self.stages)
        word_args = {arg for rule in model.contextual_rules
                     if rule.template in WORD_TEMPLATES for arg in rule.args}
        self.symbols = (Memo(lambda word: (word, tags[word])
                             if word in word_args else tags[word])
                        if word_args else tags)

    def initial(self, words) -> list:
        """The tags of a sentence's words before the contextual rules; see
        the class docstring."""
        return list(map(self.tags.__getitem__, words))

    def tag_words(self, words) -> list:
        """The final tags of one sentence's words: their starting tags, then
        the contextual rules, through the transducer. It needs no tagset
        test: ``TaggerModel`` and ``Tagset`` checked every tag it returns."""
        if not self.stages:
            return self.initial(words)
        machine = self.machine
        if len(machine.keys) > MAX_STATES:
            machine = self.machine = _Cascade(self.stages)
        state, table, tags = 0, machine.table, []
        for symbol in (*map(self.symbols.__getitem__, words), *self.ends):
            state, emitted = (table[state].get(symbol)
                              or machine._build(state, symbol))
            tags += emitted
        del tags[len(words):]
        return (tags if self.symbols is self.tags
                else [_split(symbol)[1] for symbol in tags])

    def tag(self, raw_sentences) -> TaggedCorpus:
        """The raw sentences tagged by ``tag_words``, as ``Token``s."""
        tag_words, tokens, start = self.tag_words, self.tokens, self.tags
        out = []
        for sent in raw_sentences:
            words = tuple([tok.word for tok in sent])
            tags = tag_words(words)
            if self.stages:
                out.append(tuple([tokens[word] if tag == start[word]
                                  else Token(word, tag)
                                  for word, tag in zip(words, tags)]))
            else:
                # no rule moves a tag from its start
                out.append(tuple(map(tokens.__getitem__, words)))
        return TaggedCorpus(tuple(out), self.tagset)


def tag_corpus(raw_sentences, model: TaggerModel) -> TaggedCorpus:
    """Full pipeline: initial tags, lexical rules over unknown word types,
    then contextual rules over all tokens; see ``Tagger``."""
    return model.tagger.tag(raw_sentences)


def serialize_rules(lexical_rules=(), contextual_rules=()) -> str:
    """One rule per line, file order = application order.

    ``LEX <TEMPLATE> <arg> <from_tag|-> <to_tag>``
    ``CTX <TEMPLATE> <from_tag> <to_tag> <arg1> [arg2]``
    """
    lines = []
    for r in lexical_rules:
        lines.append("LEX %s %s %s %s" % (r.template, r.arg, r.from_tag or "-",
                                          r.to_tag))
    for r in contextual_rules:
        lines.append("CTX %s %s %s %s" % (r.template, r.from_tag, r.to_tag,
                                          " ".join(r.args)))
    return "".join(line + "\n" for line in lines)


def parse_rules(text: str, tagset: Tagset):
    """Returns (lexical_rules, contextual_rules), each in file order."""
    lexical, contextual = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "LEX":
                if len(fields) != 5:
                    raise ParseError("LEX rule needs 4 fields", line=lineno)
                template, arg, from_tag, to_tag = fields[1:]
                rule = LexicalRule(template, arg,
                                   None if from_tag == "-" else from_tag, to_tag)
                lexical.append(rule)
            elif kind == "CTX":
                if len(fields) < 5:
                    raise ParseError("CTX rule needs at least 4 fields",
                                     line=lineno)
                template, from_tag, to_tag = fields[1:4]
                rule = ContextualRule(template, tuple(fields[4:]), from_tag,
                                      to_tag)
                contextual.append(rule)
            else:
                raise ParseError("rule line must start with LEX or CTX",
                                 line=lineno)
            tagset.check((tag for tag in (rule.from_tag, rule.to_tag)
                          if tag is not None), line=lineno)
        except TaggerError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), line=lineno) from exc
    return tuple(lexical), tuple(contextual)


def save_model(model: TaggerModel, path: str, manifest_extra: dict = None) -> None:
    """Write the MODEL_FILES into the directory ``path`` atomically,
    through ``work_dir(path)``: ``path``'s directory must exist. An existing
    model directory is renamed aside first and deleted only once the new
    one is in place; one holding anything else is refused before anything
    is written. The package's ``format_version`` overrides an extra's."""
    if os.path.isdir(path):
        foreign = sorted(set(os.listdir(path)) - set(MODEL_FILES))
        if foreign:
            raise ModelError("not replacing directory %s: it holds %r, "
                             "which is no model file" % (path, foreign[0]))
    # in the order of MODEL_FILES
    texts = (serialize_tagset(model.tagset), serialize_lexicon(model.lexicon),
             serialize_rules(lexical_rules=model.lexical_rules),
             serialize_rules(contextual_rules=model.contextual_rules),
             json.dumps({**(manifest_extra or {}),
                         "format_version": MODEL_FORMAT_VERSION},
                        indent=2, sort_keys=True) + "\n")
    with work_dir(path) as work:
        # mkdtemp makes its directory private; mkdir gives the model the
        # mode that the umask leaves
        tmp = os.path.join(work, "model")
        os.mkdir(tmp)
        for name, text in zip(MODEL_FILES, texts):
            write_text(os.path.join(tmp, name), (text,))
        if os.path.isdir(path):
            # Move the old model aside first, so that at every moment a
            # complete model sits at ``path`` or in the work directory.
            aside = os.path.join(work, "old")
            os.replace(path, aside)
            try:
                os.replace(tmp, path)
            except BaseException:
                os.replace(aside, path)
                raise
        else:
            os.replace(tmp, path)


def load_model(path: str) -> TaggerModel:
    for name in MODEL_FILES:
        if not os.path.isfile(os.path.join(path, name)):
            raise ModelError("model directory %s is missing %s" % (path, name))
    text = read_text(os.path.join(path, "MANIFEST"))
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the JSON decoder can follow
        raise ModelError("MANIFEST is not valid JSON: %s" % exc) from exc
    if not isinstance(manifest, dict):
        raise ModelError("MANIFEST must hold a JSON object, got %s"
                         % type(manifest).__name__)
    version = manifest.get("format_version")
    # true == 1 and 1.0 == 1 in Python; only the integer 1 is version 1
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelError("unsupported model format version %r" % (version,))
    tagset = load_tagset(read_text(os.path.join(path, "TAGSET")))
    lexicon = parse_lexicon(read_text(os.path.join(path, "LEXICON")), tagset)
    lexical, extra_ctx = parse_rules(
        read_text(os.path.join(path, "LEXRULES")), tagset)
    if extra_ctx:
        raise ModelError("LEXRULES contains contextual rules")
    extra_lex, contextual = parse_rules(
        read_text(os.path.join(path, "CTXRULES")), tagset)
    if extra_lex:
        raise ModelError("CTXRULES contains lexical rules")
    return TaggerModel(tagset, lexicon, default_greek_chain(), lexical, contextual)

