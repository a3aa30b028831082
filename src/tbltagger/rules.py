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
``lexical_template_matches`` defines the lexical templates once; the
learner's candidate features are the arguments it accepts.

A model compiles its ``Tagger`` once (``TaggerModel.tagger``), and
``tag_corpus`` calls it. The tagger maps known words to their lexicon tag
and memoises the tag of each unknown word type it has seen. Per sentence it
keeps a map from each tag to the positions holding it, so that a contextual
rule visits only its from_tag positions and is skipped when the sentence
lacks its from_tag or a tag its context reads (``context_args``).
It reuses one memoised ``Token`` per word for every output token that keeps
its word's starting tag. ``Tagger.initial`` is the one place where a token
gets its starting tag: tagging runs the contextual rules on its output, and
the learner starts contextual training from it. Tagging and training share
``rewrite_sentence`` and ``LexicalRuleIndex``, which indexes each lexical
rule by the affix, character or lexicon extension a word must hold for it
to match, so that a word is checked only against the rules it can match;
``apply_lexical_rules`` runs through it.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .corpus import (Memo, ModelError, ParseError, TaggedCorpus, TaggerError,
                     Tagset, TagsetError, Token, is_field, load_tagset,
                     read_text, serialize_tagset)
from .lexicon import (InitialRuleChain, Lexicon, default_greek_chain,
                      initial_tag, parse_lexicon, serialize_lexicon)

LEXICAL_TEMPLATES = ("ADDPREF", "ADDSUF", "DELETEPREF", "DELETESUF",
                     "HASCHAR", "HASPREF", "HASSUF")

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
        if self.template == "HASCHAR" and len(self.arg) != 1:
            raise TaggerError("HASCHAR takes exactly one character")
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


def lexical_template_matches(template: str, arg: str, word: str,
                             lexicon: Lexicon) -> bool:
    """True if the lexical template instantiated with ``arg`` matches the
    word; the from_tag check is the caller's job. Tagging and learning both
    ask this function, the one definition of the lexical templates."""
    if template == "HASSUF":
        return word.endswith(arg)
    if template == "HASPREF":
        return word.startswith(arg)
    if template == "DELETESUF":
        return (len(word) > len(arg) and word.endswith(arg)
                and word[:-len(arg)] in lexicon)
    if template == "DELETEPREF":
        return (len(word) > len(arg) and word.startswith(arg)
                and word[len(arg):] in lexicon)
    if template == "ADDSUF":
        return word + arg in lexicon
    if template == "ADDPREF":
        return arg + word in lexicon
    if template == "HASCHAR":
        return arg in word
    raise TaggerError("unknown lexical template %r" % template)


class LexicalRuleIndex:
    """Lexical rules compiled once, each indexed by the key a word must
    hold for the rule to match (the rule indexing of fnTBL, Ngai & Florian
    2001):

    - HASSUF, DELETESUF: the word's suffix of the argument's length;
    - HASPREF, DELETEPREF: its prefix of the argument's length;
    - HASCHAR: the argument among its characters;
    - ADDPREF, ADDSUF: the argument, where adding it to the word gives a
      lexicon entry.

    Affix keys are looked up by the word's affix of each argument length.
    The other keys are probed once per distinct argument, so compiling
    reads no lexicon entry. Every template's match implies its key, so the
    rules whose keys a word holds include every rule that matches it: the
    index is an exact pre-filter. ``apply`` visits only those rules, in
    rule order, checks each one's from_tag against the running tag and
    confirms the match with ``lexical_template_matches``."""

    def __init__(self, rules, lexicon: Lexicon):
        self.rules = tuple((rule.template, rule.arg, rule.from_tag,
                            rule.to_tag) for rule in rules)
        self.lexicon = lexicon
        # key -> ascending indices of the rules it admits
        self.suffixes, self.prefixes = {}, {}
        chars, add_pref, add_suf = {}, {}, {}
        buckets = {"HASSUF": self.suffixes, "DELETESUF": self.suffixes,
                   "HASPREF": self.prefixes, "DELETEPREF": self.prefixes,
                   "HASCHAR": chars, "ADDPREF": add_pref, "ADDSUF": add_suf}
        for i, (template, arg, _, _) in enumerate(self.rules):
            buckets[template].setdefault(arg, []).append(i)
        self.suffix_lengths = sorted({len(arg) for arg in self.suffixes})
        self.prefix_lengths = sorted({len(arg) for arg in self.prefixes})
        self.chars = tuple(chars.items())
        self.add_pref = tuple(add_pref.items())
        self.add_suf = tuple(add_suf.items())

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
            template, arg, from_tag, to_tag = rules[i]
            if ((from_tag is None or from_tag == tag)
                    and lexical_template_matches(template, arg, word,
                                                 self.lexicon)):
                tag = to_tag
        return tag


def apply_lexical_rules(rules, assignments: dict, lexicon: Lexicon) -> dict:
    """Apply rules in order to a word-type -> tag map for unknown words.
    Later rules see earlier rules' retagging. A rule's match depends on
    the word alone, so each word runs through the rules on its own, by
    ``LexicalRuleIndex.apply``."""
    index = LexicalRuleIndex(rules, lexicon)
    return {word: index.apply(word, tag) for word, tag in assignments.items()}


def build_affix_extension_maps(lexicon: Lexicon, max_affix_len: int):
    """(add_suf, add_pref): word -> affixes whose addition lands in the
    lexicon, so that ADDSUF/ADDPREF arguments are found without scanning
    the lexicon per word."""
    add_suf = defaultdict(list)
    add_pref = defaultdict(list)
    for other in lexicon.entries:
        for k in range(1, min(max_affix_len, len(other) - 1) + 1):
            add_suf[other[:-k]].append(other[-k:])
            add_pref[other[k:]].append(other[:k])
    return dict(add_suf), dict(add_pref)


# The only templates whose candidate arguments can fail to match: the
# others' arguments are the word's own affixes and characters, or affixes
# whose addition lands in the lexicon.
_CHECKED_FEATURES = frozenset(("DELETEPREF", "DELETESUF"))


def lexical_candidate_features(word: str, lexicon: Lexicon,
                               max_affix_len: int, extension_maps) -> tuple:
    """All (template, arg) pairs that match this word: the arguments each
    template could take for it (its affixes up to max_affix_len, its
    characters, the affixes from ``build_affix_extension_maps``), the
    DELETEPREF and DELETESUF ones kept where ``lexical_template_matches``
    says they match."""
    add_suf, add_pref = extension_maps
    lengths = range(1, min(max_affix_len, len(word)) + 1)
    suffixes = [word[-k:] for k in lengths]
    prefixes = [word[:k] for k in lengths]
    args = {"ADDPREF": add_pref.get(word, ()), "ADDSUF": add_suf.get(word, ()),
            "DELETEPREF": prefixes, "DELETESUF": suffixes,
            "HASCHAR": sorted(set(word)), "HASPREF": prefixes,
            "HASSUF": suffixes}
    return tuple((template, arg) for template in LEXICAL_TEMPLATES
                 for arg in args[template]
                 if template not in _CHECKED_FEATURES
                 or lexical_template_matches(template, arg, word, lexicon))


def context_checks(template: str, args: tuple):
    """(reads words, alternatives) of a template instantiated with ``args``:
    each alternative is a tuple of (offset, arg) pairs, all of which must
    hold for it to match. Args may be names or integer codes."""
    reads, alternatives = CONTEXT_TABLE[template]
    return (reads == WORDS,
            tuple(tuple(zip(offsets, args)) for offsets in alternatives))


def context_args(checks) -> frozenset:
    """The args that every alternative of ``checks`` reads; in
    ``CONTEXT_TABLE`` every alternative reads every arg, so these are all
    of them.

    A rule can first match in a sentence only if the sentence holds its
    from_tag and each of these args (among its tags, or its words for a
    word template): a match needs one alternative to hold in full, and
    ``rewrite_sentence`` reads the sentence as given up to the first
    match. A sentence lacking any of them is left unchanged by the rule,
    so tagging and learning skip it."""
    _, alternatives = checks
    return frozenset.intersection(*(frozenset(arg for _, arg in alternative)
                                    for alternative in alternatives))


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
        if self.initial_chain != default_greek_chain():
            # load_model cannot restore any other chain
            raise TaggerError("a model can only use the default initial "
                              "rule chain, got %r" % (self.initial_chain,))
        for rule in (*self.lexical_rules, *self.contextual_rules):
            for tag in (rule.from_tag, rule.to_tag):
                if tag is not None and tag not in self.tagset:
                    raise TagsetError("rule tag %r not in tagset" % tag)
        for word in self.lexicon.entries:
            if not is_field(word):
                raise TaggerError("lexicon word %r is empty or holds "
                                  "whitespace or a lone surrogate" % (word,))
        for tag in {tag for pairs in self.lexicon.entries.values()
                    for tag, _ in pairs}:
            if tag not in self.tagset:
                raise TagsetError("lexicon tag %r not in tagset" % tag)

    @cached_property
    def tagger(self) -> "Tagger":
        """The ``Tagger`` of this model, built once."""
        return Tagger(self)


class Tagger:
    """A model's tagging pipeline, built once per model (``model.tagger``).

    ``tags`` maps each known word to its most frequent lexicon tag, and
    each unknown word type already seen to its tag after the initial rule
    chain and the lexical rules. That tag is a pure function of the word
    and the model, so the memo is exact; it grows with the distinct
    unknown types tagged. A new unknown type goes through the model's
    ``LexicalRuleIndex``, compiled here once, which visits only the
    lexical rules whose keys the word holds.

    Contextual rules run per sentence through a map from each tag to the
    ascending positions holding it. A rule is skipped unless its from_tag
    and every tag its context reads have positions, an emptied list
    counting as none: a rule cannot first match in a sentence lacking one
    (``context_args``). The others visit only their from_tag positions
    (``rewrite_sentence``). The map follows the positions each rule moves.
    ``tokens`` memoises, per word, the ``Token`` of its starting tag; an
    output token whose tag is its word's starting tag is that one object,
    which is exact because ``Token`` is frozen. It grows with the distinct
    words output."""

    def __init__(self, model: TaggerModel):
        self.lexicon = model.lexicon
        self.chain = model.initial_chain
        self.tagset = model.tagset
        self.lexical_rules = LexicalRuleIndex(model.lexical_rules,
                                              model.lexicon)
        # per rule: checks, from_tag, the tags its context reads (see
        # ``context_args``), to_tag
        self.contextual_rules = tuple(
            (rule.checks, rule.from_tag,
             () if rule.template in WORD_TEMPLATES
             else tuple(context_args(rule.checks)), rule.to_tag)
            for rule in model.contextual_rules)
        tags = self.tags = {word: pairs[0][0]
                            for word, pairs in model.lexicon.entries.items()}
        self.tokens = Memo(lambda word: Token(word, tags[word]))

    def initial(self, raw_sentences):
        """Yields each sentence's (words, tags) before the contextual rules;
        see the class docstring."""
        tags = self.tags
        for sent in raw_sentences:
            words = tuple(tok.word for tok in sent)
            for word in words:
                if word not in tags:
                    tags[word] = self.lexical_rules.apply(
                        word, initial_tag(word, self.lexicon, self.chain,
                                          self.tagset))
            yield words, [tags[word] for word in words]

    def tag(self, raw_sentences) -> TaggedCorpus:
        rules = self.contextual_rules
        tokens = self.tokens
        out = []
        for words, start in self.initial(raw_sentences):
            tags = start
            if rules:
                where = {}
                for pos, tag in enumerate(start):
                    if tag in where:
                        where[tag].append(pos)
                    else:
                        where[tag] = [pos]
                for checks, from_tag, context, to_tag in rules:
                    positions = where.get(from_tag)
                    if not positions:
                        continue
                    for tag in context:
                        if not where.get(tag):
                            break
                    else:
                        new, moved = rewrite_sentence(checks, to_tag, words,
                                                      tags, positions)
                        if new is not None:
                            tags = new
                            where[from_tag] = [pos for pos in positions
                                               if new[pos] == from_tag]
                            where[to_tag] = sorted(where.get(to_tag, [])
                                                   + moved)
            if tags is start:
                out.append(tuple(map(tokens.__getitem__, words)))
            else:
                out.append(tuple([tokens[word] if tag == first
                                  else Token(word, tag) for word, tag, first
                                  in zip(words, tags, start)]))
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
                    raise ParseError("line %d: LEX rule needs 4 fields" % lineno,
                                     line=lineno)
                template, arg, from_tag, to_tag = fields[1:]
                rule = LexicalRule(template, arg,
                                   None if from_tag == "-" else from_tag, to_tag)
                lexical.append(rule)
            elif kind == "CTX":
                if len(fields) < 5:
                    raise ParseError("line %d: CTX rule needs at least 4 fields"
                                     % lineno, line=lineno)
                template, from_tag, to_tag = fields[1:4]
                rule = ContextualRule(template, tuple(fields[4:]), from_tag,
                                      to_tag)
                contextual.append(rule)
            else:
                raise ParseError("line %d: rule line must start with LEX or CTX"
                                 % lineno, line=lineno)
            for tag in (rule.from_tag, rule.to_tag):
                if tag is not None and tag not in tagset:
                    raise TagsetError("line %d: tag %r not in tagset"
                                      % (lineno, tag), line=lineno)
        except TaggerError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError("line %d: %s" % (lineno, exc), line=lineno) from exc
    return tuple(lexical), tuple(contextual)


def save_model(model: TaggerModel, path: str, manifest_extra: dict = None) -> None:
    """Write TAGSET/LEXICON/LEXRULES/CTXRULES/MANIFEST atomically: build in a
    temp directory next to ``path`` and rename into place. An existing model
    directory is renamed aside first and deleted only once the new one is
    in place."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".model-", dir=parent)
    try:
        _write(os.path.join(tmp, "TAGSET"), serialize_tagset(model.tagset))
        _write(os.path.join(tmp, "LEXICON"), serialize_lexicon(model.lexicon))
        _write(os.path.join(tmp, "LEXRULES"),
               serialize_rules(lexical_rules=model.lexical_rules))
        _write(os.path.join(tmp, "CTXRULES"),
               serialize_rules(contextual_rules=model.contextual_rules))
        manifest = {"format_version": MODEL_FORMAT_VERSION}
        manifest.update(manifest_extra or {})
        _write(os.path.join(tmp, "MANIFEST"),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        aside = None
        if os.path.isdir(path):
            # Move the old model aside first, so that at every moment a
            # complete model sits at ``path`` or right beside it.
            aside = tmp + ".old"
            os.replace(path, aside)
        try:
            os.replace(tmp, path)
        except BaseException:
            if aside is not None:
                os.replace(aside, path)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if aside is not None:
        shutil.rmtree(aside, ignore_errors=True)


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


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
