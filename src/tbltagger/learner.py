"""Two-stage greedy error-driven training.

Stage one learns lexical rules over word types: the training corpus is split
in two, one half builds a guess lexicon and the word types of the other half
that the guess lexicon does not know simulate unknown words. Stage two
learns contextual rules over tokens against the full training corpus,
selecting at each step the rule with the highest true (apply-and-count)
error reduction. Both stages stop when no candidate reaches the score
threshold. One loop, ``_greedy``, drives both stages, and one argmax,
``_best``, ranks the candidates of both.

The greedy steps are exact. Both stages keep their counts across steps,
after the rule indexing of Ramshaw & Marcus (1994) and fnTBL (Ngai &
Florian 2001), and both code a candidate key as one integer. Lexical
learning counts the matched types of every candidate key once; accepting a
rule moves the counts of only the types it retagged, found through an index
from each feature to the types holding it, sums those moves per key before
writing each key once, and rescores only the keys they touch. Its
candidate features list added affixes for the unknown types alone.
Contextual learning counts the match sites of
every candidate key from n-gram tallies: each distinct n-gram of tags,
words and gold tags around a position is counted in C (``Counter``) and
spells its keys once, weighted by its count. Accepting a rule visits only
the sentences that hold its from_tag and the tags its context reads
(``rules.context_args``), tallies the n-grams that read a position it
retagged under the new tags minus the old, so that unchanged contexts
cancel before any key is spelled, and rescores only the keys whose counts
moved and the near keys of the changed sentences. Rules apply left to right, so a later site sees an
earlier retag only through an offset its template reads on its left: the
dynamic net equals the static count except where a match site has another
from_tag position d tokens after it and the template reads offset -d, for
candidates whose argument tags include the rule's from_tag or to_tag. Such
a candidate is ranked by an upper bound on its net; only when the argmax
picks a bound are those sentences re-simulated, for that key.

Both stages run on the tagger's code. Lexical candidates are the features
``rules.lexical_candidate_features`` lists, and a rule retags the types
holding its feature. Contextual training starts from the
tagger's ``rules.Tagger.initial``, templates come from ``CONTEXT_TABLE``
and rules are applied by ``rules.rewrite_sentence``; only ``_spell``,
``_left`` and ``_right`` spell out the templates, for speed, and a test
pins them to the table. The
brute-force scorers the greedy steps are checked against live under
``tests/``.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import random
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from .corpus import TaggedCorpus, TaggerError, select_sentences
from .lexicon import (InitialRuleChain, Lexicon, build_lexicon,
                      classify_script, default_greek_chain, start_tags)
from .rules import (CONTEXT_WINDOW, CONTEXTUAL_TEMPLATES, WORD_TEMPLATES,
                    ContextualRule, LexicalRule, TaggerModel,
                    context_args, context_checks,
                    lexical_candidate_features, rewrite_sentence)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    score_threshold: int = 2
    max_rules_per_phase: Optional[int] = None
    lexicon_split_fraction: float = 0.5
    max_affix_len: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.score_threshold < 1:
            raise TaggerError("score_threshold must be >= 1")
        if not 0.0 < self.lexicon_split_fraction < 1.0:
            raise TaggerError("lexicon_split_fraction must be in (0, 1)")
        if self.max_affix_len < 1:
            raise TaggerError("max_affix_len must be >= 1")
        if self.max_rules_per_phase is not None and self.max_rules_per_phase < 0:
            raise TaggerError("max_rules_per_phase must be >= 0")


@dataclass(frozen=True)
class RuleScore:
    good: int
    bad: int

    @property
    def net(self):
        return self.good - self.bad


def split_for_unknown_training(corpus: TaggedCorpus, fraction: float,
                               seed: int):
    """Seeded sentence-level split: ceil(fraction * S) sentences build the
    guess lexicon, the rest drive rule learning. Every training path splits
    first, so this is where a corpus of fewer than 2 sentences is refused."""
    n = len(corpus.sentences)
    if n < 2:
        raise TaggerError("need at least 2 sentences to split, got %d" % n
                          if n else "cannot train on an empty corpus")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_lex = math.ceil(fraction * n)
    lex_idx = sorted(order[:n_lex])
    rule_idx = sorted(order[n_lex:])
    return select_sentences(corpus, lex_idx), select_sentences(corpus, rule_idx)


def unknown_types(rule_part: TaggedCorpus, guess_lexicon: Lexicon,
                  chain: InitialRuleChain):
    """(tags, targets) for the word types of rule_part unknown to the guess
    lexicon: tags maps each to its initial tag, targets to its gold tag and
    its number of tokens in rule_part. The gold tag of a type is its most
    frequent gold tag in rule_part, ties broken by ascending tag name. Both
    hold the types in order of first occurrence."""
    entries = guess_lexicon.entries
    gold_counts = defaultdict(Counter)
    for sent in rule_part.sentences:
        for tok in sent:
            if tok.word not in entries:
                gold_counts[tok.word][tok.tag] += 1
    start = start_tags(chain, rule_part.tagset)
    tags = {word: start[classify_script(word)] for word in gold_counts}
    targets = {word: (min(counts, key=lambda t: (-counts[t], t)),
                      sum(counts.values()))
               for word, counts in gold_counts.items()}
    return tags, targets


class _LexicalLearner:
    """Exact greedy lexical learning that keeps its counts across steps.

    A candidate ``(template, arg, from_tag)`` is coded as one integer key,
    ``feature rank * M + slot``: the feature ``(template, arg)`` by its
    rank in sorted order, the from_tag by its slot, 0 for an unconditioned
    rule and else the rank of the tag among the initial and gold tags
    (``tag_names``). So keys sort like the rules they stand for (see
    ``_decode``). A to_tag, always a gold tag, is coded by its slot too.
    Each unknown type adds its token count under every key it matches: the
    unconditioned one and the one conditioned on its current tag. Per key
    the learner keeps, by gold slot, the counts of the types in error
    (``fixes``: the good count of the rule retagging to that gold tag) and
    of the types already correct (``correct``: a rule retagging to another
    tag breaks them, one retagging to their own tag leaves them be).

    Accepting a rule retags only the types that hold its feature (``index``,
    by the feature's unconditioned key, which is the rule's match, so no
    lexicon is read), satisfy its from_tag and lack its to_tag. A type
    retagged from ``was`` to ``tag`` moves its conditioned keys from the one
    slot to the other. Its unconditioned keys change only when the type
    turns correct or wrong; a move between two wrong tags leaves them as
    they are. Only the keys so touched are scored again. Candidates
    reaching the threshold are kept in ``live``; a key none of whose fixes
    reaches it has none.

    Counts are summed before they are written. A step groups the types it
    retags by (old slot, new slot, gold slot), sums each group's token
    counts per unconditioned key (``_sum``), and writes each key of the
    group once (``_add``); ``__init__`` does the same per (slot, gold
    slot). So a key shared by many retagged types is written once per
    group, not once per type, and the keys touched are the same.
    """

    def __init__(self, tags: dict, targets: dict, features: dict,
                 threshold: int):
        self.tags = dict(tags)
        self.targets = targets
        self.threshold = threshold
        self.feature_names = sorted(set().union(*features.values()))
        self.tag_names = ("",) + tuple(sorted(
            set(self.tags.values()) | {gold for gold, _ in targets.values()}))
        self.slot = {t: i for i, t in enumerate(self.tag_names)}
        self.M = M = len(self.tag_names)
        # feature -> its unconditioned key, one int object shared by all
        # the types holding the feature
        self.base = {f: i * M for i, f in enumerate(self.feature_names)}
        self.fixes = {}     # key -> {gold slot: tokens of types in error}
        self.correct = {}   # key -> {slot: tokens of correct types}
        self.live = {}      # key -> {to slot: (good, bad)}, net >= threshold
        self.index = defaultdict(list)  # unconditioned key -> types
        self.bases = {}     # type -> its unconditioned keys
        sums = defaultdict(Counter)  # (slot, gold slot) -> base key -> tokens
        for word, tag in self.tags.items():
            bases = [self.base[f] for f in features[word]]
            for b in bases:
                self.index[b].append(word)
            self.bases[word] = bases
            gold, count = targets[word]
            _sum(sums[self.slot[tag], self.slot[gold]], bases, count)
        for (s, g), by_base in sums.items():
            table = self.correct if s == g else self.fixes
            _add(table, g, by_base)
            _add(table, g, {b + s: c for b, c in by_base.items()})
        for key in self.fixes:
            self._rescore(key)

    def _decode(self, key):
        """(template, arg, from_tag) of a key, from_tag None when
        unconditioned."""
        rank, slot = divmod(key, self.M)
        template, arg = self.feature_names[rank]
        return template, arg, self.tag_names[slot] or None

    def _rescore(self, key):
        self.live.pop(key, None)
        fx = self.fixes.get(key)
        # no candidate nets more than it fixes
        if fx is None or max(fx.values()) < self.threshold:
            return
        correct = self.correct.get(key, {})
        matched = sum(correct.values())
        live = {}
        for to, good in fx.items():
            bad = matched - correct.get(to, 0)
            if good - bad >= self.threshold:
                live[to] = (good, bad)
        if live:
            self.live[key] = live

    def best(self):
        """(rule, score) of the candidate ``_best`` picks; None when no
        candidate reaches the threshold."""
        best = _best(self.live)
        if best is None:
            return None
        key, to, score = best
        return LexicalRule(*self._decode(key), self.tag_names[to]), score

    def apply(self, rule: LexicalRule) -> None:
        """Apply a rule to the types holding its feature and bring the
        counts and scores of everything it retagged up to date."""
        frm, to = rule.from_tag, rule.to_tag
        slot, tags = self.slot, self.tags
        new = slot[to]
        # (old slot, new slot, gold slot) -> base key -> tokens moved
        moves = defaultdict(Counter)
        for word in self.index[self.base[rule.template, rule.arg]]:
            tag = tags[word]
            if tag != to and (frm is None or tag == frm):
                gold, count = self.targets[word]
                _sum(moves[slot[tag], new, slot[gold]], self.bases[word],
                     count)
                tags[word] = to
        touched = set()
        for (o, n, g), by_base in moves.items():
            src = self.correct if o == g else self.fixes
            dst = self.correct if n == g else self.fixes
            old_keys = {b + o: -c for b, c in by_base.items()}
            new_keys = {b + n: c for b, c in by_base.items()}
            if src is not dst:
                # the types turn correct or wrong: their unconditioned
                # keys move
                old_keys.update((b, -c) for b, c in by_base.items())
                new_keys.update(by_base)
            _add(src, g, old_keys)
            _add(dst, g, new_keys)
            touched.update(old_keys, new_keys)
        for key in touched:
            # _rescore does nothing to a key in neither table
            if key in self.fixes or key in self.live:
                self._rescore(key)


def _sum(sums, keys, count):
    """Add ``count`` to the sum of each key in the Counter ``sums``."""
    if count == 1:
        sums.update(keys)  # counted in C
    else:
        for key in keys:
            sums[key] += count


def _add(table, gold, deltas):
    """Add each key's delta in ``deltas`` (key -> delta) to the count of
    ``gold`` under that key of ``table`` (key -> {gold: count}), dropping
    counts that reach zero."""
    for key, delta in deltas.items():
        by_gold = table.get(key)
        if by_gold is None:
            table[key] = {gold: delta}
            continue
        c = by_gold.get(gold, 0) + delta
        if c:
            by_gold[gold] = c
        elif len(by_gold) > 1:
            del by_gold[gold]
        else:
            del table[key]


def _best(live):
    """(key, to_tag, score) of the candidate in ``live`` (key -> {to_tag:
    (good, bad)}) with the highest net, ties broken by ascending key, then
    to_tag; both learners key candidates so that this is the rule sort
    order. None when ``live`` is empty."""
    best = min((((bad - good, key, to), good, bad)
                for key, cands in live.items()
                for to, (good, bad) in cands.items()), default=None)
    if best is None:
        return None
    (_, key, to), good, bad = best
    return key, to, RuleScore(good, bad)


def _greedy(stage: str, learner_factory, errors: int,
            config: TrainConfig) -> tuple:
    """(rules, errors): the rules a learner accepts, in order, and the
    errors left after them. At each step it accepts the candidate its
    ``best()`` returns, until none reaches the threshold or
    ``config.max_rules_per_phase`` are accepted. ``errors`` is the error
    count before the first step. Every accepted rule nets at least the
    threshold (>= 1), so the count falling below zero means applying the
    rules and scoring them disagree; fail then rather than loop for ever.

    ``learner_factory()`` builds the learner only if a rule can be
    accepted: not when the cap is 0, nor when there are fewer errors than
    the threshold, as in both stages a rule nets at most the errors it
    fixes."""
    if errors < config.score_threshold or config.max_rules_per_phase == 0:
        return (), errors
    learner = learner_factory()
    rules = []
    while (config.max_rules_per_phase is None
           or len(rules) < config.max_rules_per_phase):
        best = learner.best()
        if best is None:
            break
        rule, score = best
        if score.net > errors:
            raise RuntimeError("internal error: accepting %s (net %d) leaves "
                               "%d errors below zero"
                               % (rule, score.net, errors))
        errors -= score.net
        learner.apply(rule)
        rules.append(rule)
        logger.info("%s %d %s net=%d errors_remaining=%d",
                    stage, len(rules), rule, score.net, errors)
    return tuple(rules), errors


def learn_lexical_rules(train: TaggedCorpus,
                        chain: InitialRuleChain = default_greek_chain(),
                        config: TrainConfig = TrainConfig()):
    """Returns (lexicon built from the FULL training corpus, ordered lexical
    rules learned on the held-out-lexicon split)."""
    lex_part, rule_part = split_for_unknown_training(
        train, config.lexicon_split_fraction, config.seed)
    guess = build_lexicon(lex_part)
    tags, targets = unknown_types(rule_part, guess, chain)
    errors = sum(count for word, (gold, count) in targets.items()
                 if tags[word] != gold)

    def learner():
        # the feature tuples, local here, are freed once the learner is built
        features = lexical_candidate_features(tags, guess,
                                              config.max_affix_len)
        return _LexicalLearner(tags, targets, features,
                               config.score_threshold)

    rules, _ = _greedy("lexical", learner, errors, config)
    return build_lexicon(train), rules


def initial_contextual_state(train: TaggedCorpus, lexicon: Lexicon,
                             lexical_rules, chain: InitialRuleChain):
    """(state, gold): per-sentence (words, tags from ``Tagger.initial`` of
    a model with these parts), and the gold tag lists, token-aligned."""
    initial = TaggerModel(train.tagset, lexicon, chain, lexical_rules,
                          ()).tagger.initial
    state = []
    for sent in train.sentences:
        words = tuple([tok.word for tok in sent])
        state.append((words, initial(words)))
    return state, [[tok.tag for tok in sent] for sent in train.sentences]


def token_errors(state, gold) -> int:
    return sum(1 for (_, tags), gtags in zip(state, gold)
               for t, g in zip(tags, gtags) if t != g)


_TEMPLATE_NAMES = tuple(sorted(CONTEXTUAL_TEMPLATES))


# what a column holds beyond either end of a sentence
_PAD = (-1,) * CONTEXT_WINDOW
# the positions whose n-grams a learner's first count tallies at once, so
# that the corpus is never copied whole
_BLOCK = 4096


def _grams(t, w, g, lo, hi):
    """The n-grams that read a position in lo..hi-1 of the columns ``t``,
    ``w`` and ``g`` (tags, words and gold tags, each sentence with ``_PAD``
    on either side), one iterator per family of a position with tag f and
    gold tag g: (t-3, t-2, t-1, f, g) of positions lo..hi+2, (f, t+1, t+2,
    t+3, g) of lo-3..hi-1, (t-1, f, t+1, g) of lo-1..hi, (w-1, f, g) and
    (w+1, f, g) of lo..hi-1, t+d and w+d being the tag and word at p+d and
    every position within 3..len(t)-4. A ``_PAD`` inside that range gives
    n-grams whose f is -1, which ``_spell`` skips."""
    def col(c, d, a, b):
        return itertools.islice(c, a + d, b + d)
    end = len(t) - 3
    a, b = max(lo - 3, 3), min(hi + 3, end)
    c, d = max(lo - 1, 3), min(hi + 1, end)
    return (zip(col(t, -3, lo, b), col(t, -2, lo, b), col(t, -1, lo, b),
                col(t, 0, lo, b), col(g, 0, lo, b)),
            zip(col(t, 0, a, hi), col(t, 1, a, hi), col(t, 2, a, hi),
                col(t, 3, a, hi), col(g, 0, a, hi)),
            zip(col(t, -1, c, d), col(t, 0, c, d), col(t, 1, c, d),
                col(g, 0, c, d)),
            zip(col(w, -1, lo, hi), col(t, 0, lo, hi), col(g, 0, lo, hi)),
            zip(col(w, 1, lo, hi), col(t, 0, lo, hi), col(g, 0, lo, hi)))


def _update(correct, fixes, counts):
    """Add each (class, count, keys) of ``counts`` to ``correct`` (key ->
    count) under each key when its class is -1, and else to ``fixes`` (key
    -> {class: count}), dropping counts that reach zero."""
    for cls, c, keys in counts:
        if cls < 0:
            for k in keys:
                n = correct.get(k, 0) + c
                if n:
                    correct[k] = n
                else:
                    del correct[k]
            continue
        for k in keys:
            fx = fixes.get(k)
            if fx is None:
                fixes[k] = {cls: c}
                continue
            n = fx.get(cls, 0) + c
            if n:
                fx[cls] = n
            elif len(fx) > 1:
                del fx[cls]
            else:
                del fixes[k]


class _ContextualLearner:
    """Exact greedy contextual learning that keeps its counts across steps.

    Tags and words are coded as their ranks in sorted order, and a candidate
    key ``(template, args, from_tag)`` as one integer whose order is the
    rule sort order (see ``_decode``); a candidate rule is ``key * T +
    to_tag``. Per key the learner keeps the number of match sites whose
    gold tag is from_tag (``correct``, the static bad count) and the gold
    tags of its error sites (``fixes``, the static good count per to_tag).

    Applying a rule changes matched positions from from_tag to to_tag,
    which can perturb a tag predicate only where the predicate's argument
    equals one of those two tags; word predicates are never perturbed. The
    first position where applying left to right decides otherwise than the
    static count must read an earlier match through a left offset of the
    key's template, so a sentence needs re-simulating for a key only if a
    match site there has another from_tag position d to its right, d at
    most CONTEXT_WINDOW, and the template reads offset -d in
    ``CONTEXT_TABLE`` (``inter``: key -> sorted sentence numbers; no NEXT*
    or word key is ever in it). A candidate that can be perturbed (its key
    in ``inter``, its from_tag or to_tag among its args) enters ``live``
    with an upper bound on its net, and its key goes into ``bounded``;
    only when ``_best`` picks such a key are the sentences in ``inter``
    simulated to score it exactly (see ``best``). Every other candidate's
    static count is exact.

    Accepting a rule rewrites only the sentences that hold its from_tag
    and the tags its context reads, the only ones it can change
    (``context_args``; a word rule visits every sentence holding its
    from_tag): ``holders`` maps each tag to the sentences holding it. The
    order of visits does not matter, since every update is a sum or a
    sorted insert.

    The counts come from n-gram tallies (see ``_grams``): five families of
    n-grams of a position, each holding the tags, words and gold tag its
    keys read. ``__init__`` tallies the whole corpus one family at a time,
    and each distinct n-gram spells its keys once (``_spell``), weighted
    by its count. In each sentence it changed, ``apply`` tallies the
    n-grams that read a retagged position, under the new tags and, with
    the opposite sign, the old, from the first retagged position - 3 to
    the last + 3: no other n-gram changes, since a key at position p reads
    only the tags at p-3..p+3, the words at p-1 and p+1 and the gold tag
    at p. The changed sentences' n-grams are summed before any key is
    spelled, so that unchanged contexts cancel, and the keys' moves are
    summed before they are written (``_update``), so that a key whose
    counts do not move is neither written nor touched. ``inter`` is kept
    from each changed sentence's whole near keys (``_near``) under the old
    and the new tags. Only the keys whose counts moved and the changed
    sentences' near keys, whose exact scores read those sentences, are
    scored again, and only if ``fixes`` or ``live`` holds them. An
    untouched key keeps its static counts and its ``inter`` sentences, so
    its live entry stays exact or stays a sound bound though
    ``confusion`` moves.
    """

    def __init__(self, names: list, threshold: int):
        # names is [state, gold] of initial_contextual_state, emptied so
        # that the names are freed once coded, before the first count
        state, gold = names
        names.clear()
        tag_names = sorted({t for _, tags in state for t in tags}
                           | {t for gtags in gold for t in gtags})
        word_names = sorted({w for words, _ in state for w in words})
        self.tag_names, self.word_names = tag_names, word_names
        self.tag_id = {t: i for i, t in enumerate(tag_names)}
        self.word_id = {w: i for i, w in enumerate(word_names)}
        self.T = len(tag_names)
        self.R = max(self.T, len(word_names), 1)
        # the base key of each template, in the order of _TEMPLATE_NAMES
        self.bases = tuple(rank * self.R * self.R * self.T
                           for rank in range(len(_TEMPLATE_NAMES)))
        self.threshold = threshold
        self.words = [tuple(self.word_id[w] for w in words)
                      for words, _ in state]
        self.tags = [[self.tag_id[t] for t in tags] for _, tags in state]
        self.gold = [[self.tag_id[t] for t in gtags] for gtags in gold]
        del state, gold
        self.inter = {}         # tag key -> array of sentence numbers
        self.bounded = set()    # keys whose live entry holds a bound
        self.live = {}          # key -> {to_tag: (good, bad)}, net >= threshold
        self.holders = defaultdict(set)  # tag -> sentences holding it
        # confusion[tag][gold]: tokens currently tagged tag whose gold is gold
        self.confusion = [[0] * self.T for _ in range(self.T)]
        for s, tags in enumerate(self.tags):
            for t in set(tags):
                self.holders[t].add(s)
            for t, g in zip(tags, self.gold[s]):
                self.confusion[t][g] += 1
            for k in self._near((*_PAD, *tags, *_PAD), 3, len(tags) + 3):
                sents = self.inter.get(k)
                if sents is None:
                    self.inter[k] = array("l", (s,))
                else:
                    sents.append(s)
        self.correct = {}   # key -> match sites already correct
        self.fixes = {}     # key -> {gold tag: match sites in error}
        _update(self.correct, self.fixes, self._spell(map(self._tally,
                                                          range(5))))
        for key in self.fixes:
            self._rescore(key)

    def _tally(self, family):
        """The Counter of one family of ``_grams`` over the whole corpus,
        summed block by block (about ``_BLOCK`` positions)."""
        counts = Counter()
        t, w, g = list(_PAD), list(_PAD), list(_PAD)
        for s, tags in enumerate(self.tags):
            t += tags
            t += _PAD
            w += self.words[s]
            w += _PAD
            g += self.gold[s]
            g += _PAD
            if len(t) > _BLOCK or s == len(self.tags) - 1:
                counts.update(_grams(t, w, g, 3, len(t) - 3)[family])
                del t[3:], w[3:], g[3:]
        return counts

    def _near(self, t, lo, hi):
        """The near keys of the positions lo..hi-1 of the tags ``t``, a
        sentence with ``_PAD`` on either side: the keys of a site with a
        twin (its tag) d to its right whose template reads offset -d."""
        T, R, SR = self.T, self.R, self.bases[-1]
        near = set()
        for t3, t2, t1, f, u1, u2, u3 in zip(
                t[lo - 3:hi - 3], t[lo - 2:hi - 2], t[lo - 1:hi - 1],
                t[lo:hi], t[lo + 1:hi + 1], t[lo + 2:hi + 2],
                t[lo + 3:hi + 3]):
            if t1 >= 0 and (f == u1 or f == u2 or f == u3):
                keys, mid3, end = self._left(t3, t2, t1, f)
                if u1 == f:
                    near.update(keys[:end])
                    near.add(SR + (t1 * R + f) * T + f)
                if u2 == f:
                    near.update(keys[1:])
                if u3 == f:
                    near.update(keys[mid3:end])
        return near

    def _left(self, t3, t2, t1, f):
        """(keys, mid3, end): the keys of the tag templates that read only
        to the left of a site of from_tag ``f``, whose tags 1, 2 and 3 to
        the left are t1 >= 0, t2 and t3 (-1 outside the sentence). The
        keys reading offset -1 are ``keys[:end]`` (all but PREV2TAG), -2
        ``keys[1:]`` (all but PREVTAG) and -3 ``keys[mid3:end]``
        (PREV1OR2OR3TAG)."""
        T, RT = self.T, self.R * self.T
        _, _, _, _, _, _, P123, P12, P2, PB, PT, _, _ = self.bases
        x1 = t1 * RT + f
        keys = [PT + x1, P12 + x1]
        if t2 < 0:
            keys.append(P123 + x1)
            return keys, 2, 3
        x2 = t2 * RT + f
        if t2 != t1:
            keys.append(P12 + x2)
        keys.append(PB + x2 + t1 * T)
        mid3 = len(keys)
        keys.append(P123 + x1)
        if t2 != t1:
            keys.append(P123 + x2)
        if t3 >= 0 and t3 != t1 and t3 != t2:
            keys.append(P123 + t3 * RT + f)
        keys.append(P2 + x2)
        return keys, mid3, len(keys) - 1

    def _right(self, f, u1, u2, u3):
        """The keys of the tag templates that read only to the right of a
        site of from_tag ``f``, whose tags 1, 2 and 3 to the right are u1
        >= 0, u2 and u3 (-1 outside the sentence)."""
        T, RT = self.T, self.R * self.T
        N123, N12, N2, NB, NT, _, _, _, _, _, _, _, _ = self.bases
        y1 = u1 * RT + f
        keys = [NT + y1, N12 + y1, N123 + y1]
        if u2 >= 0:
            y2 = u2 * RT + f
            keys.append(N2 + y2)
            if u2 != u1:
                keys.append(N12 + y2)
                keys.append(N123 + y2)
            keys.append(NB + y1 + u2 * T)
            if u3 >= 0 and u3 != u1 and u3 != u2:
                keys.append(N123 + u3 * RT + f)
        return keys

    def _spell(self, tallies):
        """(class, count, keys) of each n-gram in ``tallies``, the Counters
        of the families of ``_grams`` in its order: the keys it spells and
        its class, -1 for a correct site and else its gold tag. A family's
        Counter is taken from ``tallies`` only once the one before is
        spelled, and emptied then, so that a lazy ``tallies`` holds one at a
        time. The keys of each template are spelled out here, in ``_left``
        and in ``_right`` for speed rather than read from
        ``CONTEXT_TABLE``; ``TestCountMatchesTemplateTable`` checks them
        against the table."""
        T, RT = self.T, self.R * self.T
        NW, PW, SR = self.bases[5], self.bases[11], self.bases[12]
        tallies = iter(tallies)
        counts = next(tallies)
        for (t3, t2, t1, f, g), c in counts.items():
            if c and f >= 0 and t1 >= 0:
                yield -1 if g == f else g, c, self._left(t3, t2, t1, f)[0]
        counts.clear()
        counts = next(tallies)
        for (f, u1, u2, u3, g), c in counts.items():
            if c and f >= 0 and u1 >= 0:
                yield -1 if g == f else g, c, self._right(f, u1, u2, u3)
        counts.clear()
        counts = next(tallies)
        for (t1, f, u1, g), c in counts.items():
            if c and f >= 0 and t1 >= 0 and u1 >= 0:
                yield -1 if g == f else g, c, (SR + t1 * RT + f + u1 * T,)
        counts.clear()
        for base in PW, NW:
            counts = next(tallies)
            for (w, f, g), c in counts.items():
                if c and f >= 0 and w >= 0:
                    yield -1 if g == f else g, c, (base + w * RT + f,)
            counts.clear()

    def _decode(self, key):
        """(template, coded args, coded from_tag) of a key, which is
        ``((template rank * R + arg1) * R + arg2) * T + from_tag``."""
        key, frm = divmod(key, self.T)
        key, a2 = divmod(key, self.R)
        rank, a1 = divmod(key, self.R)
        template = _TEMPLATE_NAMES[rank]
        if CONTEXTUAL_TEMPLATES[template] == 1:
            return template, (a1,), frm
        return template, (a1, a2), frm

    def _rescore(self, key, exact=False):
        """Put the candidates of a key that reach the threshold in ``live``.

        A candidate that applying can perturb (a key in ``inter`` whose
        args include its from_tag or to_tag) gets an upper bound on its
        net, and its key goes into ``bounded``, unless ``exact``: then the
        sentences in ``inter[key]`` are simulated to give the dynamic
        counts. A to_tag outside the args only removes match sites (net <=
        good), one in the args only adds sites when from_tag is not an arg
        (net <= with_gold[to] - bad), and in any case no more than
        with_gold[to] positions can be fixed. Every other candidate's
        static count is exact."""
        self.live.pop(key, None)
        self.bounded.discard(key)
        fx = self.fixes.get(key)
        if not fx:
            return
        bad = self.correct.get(key, 0)
        near = key in self.inter
        if near:
            _, args, frm = self._decode(key)
            frm_in_args = frm in args
            with_gold = self.confusion[frm]
            if exact:
                moved, own = self._simulate(key)
        live = {}
        for to, good in fx.items():
            score = (good, bad)
            perturbable = near and (frm_in_args or to in args)
            if perturbable and exact:
                dg, db = (own.get(to, (0, 0)) if to in args
                          else (moved[to], moved[frm]))
                score = (good + dg, bad + db)
            elif perturbable:
                score = ((good, 0) if to not in args
                         else (with_gold[to], 0 if frm_in_args else bad))
            if score[0] - score[1] >= self.threshold:
                live[to] = score
                if perturbable and not exact:
                    self.bounded.add(key)
        if live:
            self.live[key] = live

    def _simulate(self, key):
        """(moved, own): the dynamic minus static counts of a tag key over
        the sentences in ``inter[key]``, the only ones where they differ.

        A to_tag outside the args moves the same positions whichever it is,
        so one simulation gives ``moved``: gold tag -> change in the number
        of moved positions with that gold (needed only when from_tag is an
        arg). Each arg other than from_tag is simulated on its own, giving
        ``own``: arg -> (d_good, d_bad)."""
        template, args, frm = self._decode(key)
        checks = context_checks(template, args)
        others = set(args) - {frm}
        moved, own = Counter(), {}
        for s in self.inter.get(key, ()):
            words, gtags, tags = self.words[s], self.gold[s], self.tags[s]
            positions = [p for p, t in enumerate(tags) if t == frm]
            # moving to frm itself changes nothing: the static match sites
            _, static = rewrite_sentence(checks, frm, words, tags, positions)
            if frm in args:
                _, dynamic = rewrite_sentence(checks, -1, words, tags,
                                              positions)
                moved.update(gtags[p] for p in dynamic)
                moved.subtract(gtags[p] for p in static)
            for a in others:
                _, dynamic = rewrite_sentence(checks, a, words, tags,
                                              positions)
                dg, db = own.get(a, (0, 0))
                for p in dynamic:
                    dg += gtags[p] == a
                    db += gtags[p] == frm
                for p in static:
                    dg -= gtags[p] == a
                    db -= gtags[p] == frm
                own[a] = (dg, db)
        return moved, own

    def best(self):
        """(rule, score) of the candidate ``_best`` picks; None when no
        candidate reaches the threshold. A bound is never returned: the key
        that holds it is scored exactly and ``_best`` asked again, so the
        pick is exact, as no bound is below its candidate's net. Each call
        logs at DEBUG how many keys it scored exactly and how many of them
        kept a candidate at the threshold."""
        scored = kept = 0
        best = _best(self.live)
        while best is not None and best[0] in self.bounded:
            self._rescore(best[0], exact=True)
            scored += 1
            kept += best[0] in self.live
            best = _best(self.live)
        logger.debug("contextual exact_scored=%d kept=%d", scored, kept)
        if best is None:
            return None
        key, to, score = best
        template, args, frm = self._decode(key)
        names = (self.word_names if template in WORD_TEMPLATES
                 else self.tag_names)
        rule = ContextualRule(template, tuple(names[a] for a in args),
                              self.tag_names[frm], self.tag_names[to])
        return rule, score

    def apply(self, rule: ContextualRule) -> None:
        """Apply a rule to the sentences holding its from_tag and the tags
        its context reads (see ``context_args``) and bring the counts and
        scores of everything it changed up to date."""
        ids = (self.word_id if rule.template in WORD_TEMPLATES
               else self.tag_id)
        checks = context_checks(rule.template,
                                tuple(ids[a] for a in rule.args))
        frm, to = self.tag_id[rule.from_tag], self.tag_id[rule.to_tag]
        touched = set()
        was = [Counter() for _ in range(5)]
        now = [Counter() for _ in range(5)]
        holders = self.holders[frm]
        for s in holders.intersection(*(self.holders[t]
                                        for t in context_args(checks))):
            old = self.tags[s]
            positions = [p for p, t in enumerate(old) if t == frm]
            new, moved = rewrite_sentence(checks, to, self.words[s], old,
                                          positions)
            if new is None:
                continue
            self.tags[s] = new
            if len(moved) == len(positions):
                holders.discard(s)
            self.holders[to].add(s)
            gtags = self.gold[s]
            for p in moved:
                self.confusion[frm][gtags[p]] -= 1
                self.confusion[to][gtags[p]] += 1
            w = (*_PAD, *self.words[s], *_PAD)
            g = (*_PAD, *gtags, *_PAD)
            old, new = (*_PAD, *old, *_PAD), (*_PAD, *new, *_PAD)
            lo, hi = moved[0] + 3, moved[-1] + 4
            for counts, grams in zip(was, _grams(old, w, g, lo, hi)):
                counts.update(grams)
            for counts, grams in zip(now, _grams(new, w, g, lo, hi)):
                counts.update(grams)
            was_near = self._near(old, 3, len(old) - 3)
            now_near = self._near(new, 3, len(new) - 3)
            touched |= was_near
            touched |= now_near
            for k in was_near - now_near:
                sents = self.inter[k]
                if len(sents) == 1:
                    del self.inter[k]
                else:
                    del sents[bisect.bisect_left(sents, s)]
            for k in now_near - was_near:
                sents = self.inter.get(k)
                if sents is None:
                    self.inter[k] = array("l", (s,))
                else:
                    sents.insert(bisect.bisect_left(sents, s), s)
        for counts, old_counts in zip(now, was):
            counts.subtract(old_counts)
        # the moves summed per key first, so that a key whose counts do not
        # move is neither written nor touched
        correct, fixes = {}, {}
        _update(correct, fixes, self._spell(now))
        touched.update(correct, fixes)
        _update(self.correct, self.fixes, itertools.chain(
            ((-1, c, (k,)) for k, c in correct.items()),
            ((g, c, (k,)) for k, by_gold in fixes.items()
             for g, c in by_gold.items())))
        for key in touched:
            if key in self.fixes or key in self.live:
                self._rescore(key)


def learn_contextual_rules(train: TaggedCorpus, lexicon: Lexicon,
                           lexical_rules,
                           chain: InitialRuleChain = default_greek_chain(),
                           config: TrainConfig = TrainConfig()) -> tuple:
    return _learn_contextual(train, lexicon, lexical_rules, chain, config)[0]


def _learn_contextual(train, lexicon, lexical_rules, chain, config) -> tuple:
    """(rules, errors): ``learn_contextual_rules``'s rules and the tokens
    of ``train`` still tagged wrongly after them."""
    names = list(initial_contextual_state(train, lexicon, lexical_rules,
                                          chain))
    return _greedy("contextual",
                   lambda: _ContextualLearner(names, config.score_threshold),
                   token_errors(*names), config)


def train_model(train: TaggedCorpus,
                config: TrainConfig = TrainConfig()) -> TaggerModel:
    """Both training stages in order, with the default initial rule chain;
    deterministic in (train, config.seed)."""
    return train_model_and_errors(train, config)[0]


def train_model_and_errors(train: TaggedCorpus, config: TrainConfig) -> tuple:
    """(model, errors): ``train_model``'s model and the tokens of ``train``
    it tags wrongly. Every training word is in the model's lexicon, so no
    lexical rule fires on ``train``, and the contextual learner's greedy
    nets are exact: its remaining errors are the model's."""
    lexicon, lexical_rules = learn_lexical_rules(train, config=config)
    chain = default_greek_chain()
    contextual_rules, errors = _learn_contextual(train, lexicon,
                                                 lexical_rules, chain, config)
    return TaggerModel(train.tagset, lexicon, chain, lexical_rules,
                       contextual_rules), errors
