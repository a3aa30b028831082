"""Brute-force reference implementations that the learner is checked
against: candidate generation, direct scoring of one candidate, and the
exhaustive argmax over a candidate set. Also the references the tagger and
the learner's starting state are checked against (``initial_state``, which
never calls ``rules.Tagger``, ``reference_apply_lexical_rules``, which
never calls ``rules.LexicalRuleIndex``, and
``reference_apply_contextual_rules``, which never calls
``rules.rewrite_sentence``), and the references the evaluation
is checked against: the synthetic language's exact tagger and the
most-frequent-tag baseline. ``reference_parse_tagged_corpus``,
``reference_parse_lexicon`` and ``reference_check_tagged_corpus`` check
every item and token on its own, as the corpus and lexicon readers and
``TaggedCorpus`` must behave.

They score each candidate on its own, by a plain pass over the corpus, so
they share no counting with the learner. Lexical learning is replayed on
``TypeState`` records with its own application loop. The lexical rule
predicate asks ``reference_lexical_template_matches``, the seven lexical
templates written out by hand, and never ``rules.LEXICAL_TABLE``. It is
the one full lexical matcher: the package finds a template's key and
probes only the remainder of a deleting one (``rules.remainder_known``).
Lexical candidates are the package's ``lexical_candidate_features``, which
``TestLexicalCandidateFeatures`` checks against this matcher. The contextual
rule predicate asks ``ContextualRule.checks``, which ``context_predicate``
here reads; ``context_instantiations`` reads the template table;
``contextual_reference.py`` holds an enumeration of the contextual
templates written out by hand.
"""

import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, replace

from tbltagger.corpus import (ParseError, TaggedCorpus, TaggerError,
                              TagsetError, Token)
from tbltagger.evaluate import (SYNTH_ALT_TAG, SYNTH_FOREIGN_TAG,
                                SYNTH_PROPER_TAG, SYNTH_TRIGGERS, SynthSpec,
                                _FOREIGN_POOL, _PROPER_POOL, cross_validate,
                                synth_tagset)
from tbltagger.learner import RuleScore, TrainConfig
from tbltagger.lexicon import Lexicon, initial_tag
from tbltagger.rules import (CONTEXT_TABLE, WORDS, ContextualRule,
                             LexicalRule, lexical_candidate_features)


def reference_lexical_template_matches(template: str, arg: str, word: str,
                                       lexicon) -> bool:
    """True if the lexical template instantiated with ``arg`` matches the
    word, each template written out on its own; the from_tag check is the
    caller's job."""
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


def lexical_rule_matches(rule: LexicalRule, word: str, current_tag: str,
                         lexicon) -> bool:
    return ((rule.from_tag is None or rule.from_tag == current_tag)
            and reference_lexical_template_matches(rule.template, rule.arg,
                                                   word, lexicon))


def context_predicate(checks, words, tags, pos: int) -> bool:
    """True if the context described by ``checks`` (see
    ``rules.context_checks``) holds at ``pos``; out-of-bounds context never
    matches."""
    reads_words, alternatives = checks
    seq = words if reads_words else tags
    return any(all(0 <= pos + offset < len(seq) and seq[pos + offset] == arg
                   for offset, arg in alternative)
               for alternative in alternatives)


def contextual_rule_matches(rule: ContextualRule, words, tags, pos: int) -> bool:
    return tags[pos] == rule.from_tag and context_predicate(rule.checks, words,
                                                            tags, pos)


def reference_build_lexicon(corpus: TaggedCorpus) -> Lexicon:
    """What ``lexicon.build_lexicon`` must return for a non-empty corpus:
    one tag ``Counter`` per word, each sorted by count desc, tag name asc."""
    counts = defaultdict(Counter)
    for sent in corpus.sentences:
        for tok in sent:
            counts[tok.word][tok.tag] += 1
    return Lexicon({
        word: tuple(sorted(c.items(), key=lambda p: (-p[1], p[0])))
        for word, c in counts.items()
    })


@dataclass(frozen=True)
class TypeState:
    """Per word type during lexical learning: current guess, target tag and
    how many tokens of the type occur in the rule-learning half."""
    current: str
    gold: str
    count: int


def reference_apply_lexical_rules(rules, assignments: dict, lexicon) -> dict:
    """What ``rules.apply_lexical_rules`` must return: each rule in turn
    over every word, later rules seeing earlier rules' retagging."""
    out = dict(assignments)
    for rule in rules:
        for word, tag in out.items():
            if lexical_rule_matches(rule, word, tag, lexicon):
                out[word] = rule.to_tag
    return out


def type_states(tags: dict, targets: dict) -> dict:
    """word -> TypeState from the learner's (tags, targets) of
    ``learner.unknown_types``."""
    return {word: TypeState(tag, *targets[word]) for word, tag in tags.items()}


def weighted_type_errors(states: dict) -> int:
    return sum(st.count for st in states.values() if st.current != st.gold)


def apply_lexical_rule_to_states(rule: LexicalRule, states: dict,
                                 lexicon) -> dict:
    return {
        word: (replace(st, current=rule.to_tag)
               if lexical_rule_matches(rule, word, st.current, lexicon) else st)
        for word, st in states.items()
    }


def generate_lexical_candidates(states: dict, lexicon, max_affix_len: int) -> set:
    """Candidates drawn from currently mis-tagged types, retagging to the
    type's gold tag, optionally conditioned on its current tag."""
    wrong = [word for word, st in states.items() if st.current != st.gold]
    candidates = set()
    for word, feats in lexical_candidate_features(wrong, lexicon,
                                                  max_affix_len).items():
        st = states[word]
        for template, arg in feats:
            candidates.add(LexicalRule(template, arg, None, st.gold))
            candidates.add(LexicalRule(template, arg, st.current, st.gold))
    return candidates


def score_lexical_candidate(rule: LexicalRule, states: dict,
                            lexicon) -> RuleScore:
    """Static type-level score weighted by occurrence count."""
    good = bad = 0
    for word, st in states.items():
        if not lexical_rule_matches(rule, word, st.current, lexicon):
            continue
        if st.current != st.gold and rule.to_tag == st.gold:
            good += st.count
        elif st.current == st.gold and rule.to_tag != st.gold:
            bad += st.count
    return RuleScore(good, bad)


def rule_sort_key(rule):
    """(template, args, from_tag, to_tag), a lexical rule without from_tag
    sorting before those with one."""
    if isinstance(rule, LexicalRule):
        return (rule.template, rule.arg, rule.from_tag or "", rule.to_tag)
    return (rule.template, rule.args, rule.from_tag, rule.to_tag)


def select_best_rule(candidates, scorer, threshold: int):
    """Maximal net score; ties broken by the rule sort key (template, args,
    from_tag, to_tag ascending). None when the best net is below threshold."""
    best = None
    for rule in candidates:
        score = scorer(rule)
        key = (-score.net, rule_sort_key(rule))
        if best is None or key < best[0]:
            best = (key, rule, score)
    if best is None or best[2].net < threshold:
        return None
    return best[1], best[2]


def context_instantiations(words, tags, p) -> set:
    """Every (template, args) the template table can instantiate at this
    position from its actual context."""
    out = set()
    for template, (reads, alternatives) in CONTEXT_TABLE.items():
        seq = words if reads == WORDS else tags
        for offsets in alternatives:
            if all(0 <= p + offset < len(seq) for offset in offsets):
                out.add((template, tuple(seq[p + offset]
                                         for offset in offsets)))
    return out


def generate_contextual_candidates(state, gold) -> set:
    """Every template instantiated at every current error site, with args
    read from the site's actual context and to_tag = its gold tag."""
    candidates = set()
    for (words, tags), gtags in zip(state, gold):
        for p in range(len(tags)):
            if tags[p] == gtags[p]:
                continue
            for template, args in context_instantiations(words, tags, p):
                candidates.add(ContextualRule(template, args, tags[p],
                                              gtags[p]))
    return candidates


def score_contextual_candidate(rule: ContextualRule, state, gold) -> RuleScore:
    """Static token-level score: context checked against the pre-application
    state at every position (no cascade effects)."""
    good = bad = 0
    for (words, tags), gtags in zip(state, gold):
        for p in range(len(tags)):
            if contextual_rule_matches(rule, words, tags, p):
                if tags[p] != gtags[p] and rule.to_tag == gtags[p]:
                    good += 1
                elif tags[p] == gtags[p]:
                    bad += 1
    return RuleScore(good, bad)


def build_tag_index(state) -> dict:
    """tag -> sentence index -> ascending positions currently carrying it."""
    index = defaultdict(lambda: defaultdict(list))
    for s_idx, (_, tags) in enumerate(state):
        for p, t in enumerate(tags):
            index[t][s_idx].append(p)
    return index


def dynamic_contextual_score(rule: ContextualRule, state, gold,
                             index: dict = None) -> RuleScore:
    """True error delta of applying the rule: left-to-right with immediate
    effect, simulated on a copy of each sentence that holds from_tag."""
    if index is None:
        index = build_tag_index(state)
    good = bad = 0
    for s_idx in index.get(rule.from_tag, ()):
        g, b = simulate_sentence(rule, state[s_idx], gold[s_idx])
        good += g
        bad += b
    return RuleScore(good, bad)


def simulate_sentence(rule: ContextualRule, sent_state, gtags):
    """(good, bad) of applying the rule within one sentence: one pass left
    to right over a copy of its tags, each change visible to later
    positions."""
    words, tags = sent_state
    new = list(tags)
    good = bad = 0
    for p in range(len(new)):
        if contextual_rule_matches(rule, words, new, p):
            new[p] = rule.to_tag
            if tags[p] == gtags[p]:
                bad += 1
            elif rule.to_tag == gtags[p]:
                good += 1
    return good, bad


def initial_state(sentences, lexicon, lexical_rules, chain, tagset) -> list:
    """Per-sentence (words, tags) before the contextual rules: known words
    get their most frequent lexicon tag, unknown word types (scoped to
    these sentences) the initial rule chain's tag and then the lexical
    rules."""
    unknown = {}
    for sent in sentences:
        for tok in sent:
            if tok.word not in lexicon and tok.word not in unknown:
                unknown[tok.word] = initial_tag(tok.word, lexicon, chain,
                                                tagset)
    unknown = reference_apply_lexical_rules(lexical_rules, unknown, lexicon)
    state = []
    for sent in sentences:
        words = tuple(tok.word for tok in sent)
        state.append((words, [unknown[w] if w in unknown
                              else lexicon.most_frequent_tag(w)
                              for w in words]))
    return state


def reference_apply_contextual_rules(rules, corpus_state) -> None:
    """What ``rules.apply_contextual_rules`` must do: each rule in turn
    over every sentence, every position checked left to right against the
    tags as earlier positions left them, mutating the tag lists."""
    for rule in rules:
        for words, tags in corpus_state:
            for pos in range(len(tags)):
                if contextual_rule_matches(rule, words, tags, pos):
                    tags[pos] = rule.to_tag


def reference_tag_corpus(raw_sentences, model) -> TaggedCorpus:
    """What ``rules.Tagger`` must output: the initial and lexical stages
    over the unknown types of this input alone, then each contextual rule
    in turn over every sentence."""
    state = initial_state(raw_sentences, model.lexicon, model.lexical_rules,
                          model.initial_chain, model.tagset)
    reference_apply_contextual_rules(model.contextual_rules, state)
    return TaggedCorpus(
        tuple(tuple(Token(w, t) for w, t in zip(words, tags))
              for words, tags in state), model.tagset)


def most_frequent_tag_baseline(corpus: TaggedCorpus, k: int = 10,
                               seed: int = 0) -> float:
    """Mean cross-validated accuracy of the initial tagger alone (lexicon
    most-frequent tag plus the default rule chain, no learned rules)."""
    config = TrainConfig(max_rules_per_phase=0, seed=seed)
    return cross_validate(corpus, k, config).mean_accuracy


def synthetic_oracle_tags(sentences, spec: SynthSpec) -> TaggedCorpus:
    """Tagger hard-coded with the generating suffix map and context rule;
    on corpora generated with context_rule_strength = 1 it is exact up to
    the trigger coin flips it cannot observe (none at strength 1)."""
    tagset = synth_tagset(spec)
    suffixes = sorted(spec.suffix_paradigms, key=lambda p: -len(p[0]))
    foreign = set(_FOREIGN_POOL)
    proper = set(_PROPER_POOL)
    trigger_tags = {w: t for w, t, _ in SYNTH_TRIGGERS}
    out = []
    for sent in sentences:
        tokens = []
        prev_word = None
        for tok in sent:
            word = tok.word
            if word in trigger_tags:
                tag = trigger_tags[word]
            elif word in foreign:
                tag = SYNTH_FOREIGN_TAG
            elif word in proper:
                tag = SYNTH_PROPER_TAG
            elif prev_word in trigger_tags:
                tag = SYNTH_ALT_TAG
            else:
                tag = next((t for s, t in suffixes if word.endswith(s)),
                           spec.suffix_paradigms[0][1])
            tokens.append(Token(word, tag))
            prev_word = word
        out.append(tuple(tokens))
    return TaggedCorpus(tuple(out), tagset)


def reference_parse_tagged_corpus(text: str, tagset) -> TaggedCorpus:
    """What ``corpus.parse_tagged_corpus`` must return or raise: every
    item split, checked, NFC-normalized and wrapped on its own, in text
    order."""
    sentences = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = []
        for m in re.finditer(r"\S+", line):
            item, col = m.group(0), m.start() + 1
            word, sep, tag = item.rpartition("/")
            if not sep:
                raise ParseError("item %r has no '/' separator" % item,
                                 line=lineno, column=col)
            if not word:
                raise ParseError("empty word in %r" % item,
                                 line=lineno, column=col)
            if not tag:
                raise ParseError("empty tag in %r" % item,
                                 line=lineno, column=col)
            if tag not in tagset:
                raise TagsetError("tag %r not in tagset" % tag, line=lineno)
            word = unicodedata.normalize("NFC", word)
            if not word:
                raise ParseError("word empty after normalization",
                                 line=lineno, column=col)
            tokens.append(Token(word, tag))
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences), tagset)


def reference_check_tagged_corpus(sentences, tagset) -> None:
    """What ``TaggedCorpus`` must raise for ``sentences``: the first fault
    in sentence and token order, each token checked on its own."""
    for sent in sentences:
        if not sent:
            raise TaggerError("empty sentence in corpus")
        for tok in sent:
            if tok.tag is None:
                raise TaggerError("untagged token %r in tagged corpus"
                                  % tok.word)
            if tok.tag not in tagset:
                raise TagsetError("tag %r not in tagset" % tok.tag)


def reference_parse_lexicon(text: str, tagset) -> Lexicon:
    """What ``lexicon.parse_lexicon`` must return or raise: every
    ``tag:count`` item split and checked on its own, in text order."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 2:
            raise ParseError("lexicon entry needs word and tag:count pairs",
                             line=lineno)
        pairs = []
        for item in fields[1:]:
            tag, sep, count = item.rpartition(":")
            if (not sep or not tag or not count
                    or any(c not in "0123456789" for c in count)):
                raise ParseError("malformed tag:count item %r" % item,
                                 line=lineno)
            if tag not in tagset:
                raise TagsetError("tag %r not in tagset" % tag, line=lineno)
            try:
                count = int(count)
            except ValueError:  # more digits than int() converts
                raise ParseError("count too long in %r" % item[:40],
                                 line=lineno) from None
            if count <= 0:
                raise ParseError("non-positive count in %r" % item,
                                 line=lineno)
            pairs.append((tag, count))
        if fields[0] in entries:
            raise ParseError("duplicate lexicon word %r" % fields[0],
                             line=lineno)
        entries[fields[0]] = tuple(pairs)
    return Lexicon(entries)
