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
Florian 2001). Lexical learning counts the matched types of every candidate
key once; accepting a rule recounts only the types it retagged, found
through an index from each feature to the types holding it, and rescores
only the keys they touch. Contextual learning counts the match sites of
every candidate key in one pass over the tokens; accepting a rule visits
only the sentences that hold its from_tag and its context args
(``rules.context_args``), re-derives the counts of only the positions
within the context window of a position it retagged, and rescores only the
keys they touch. The dynamic net equals the static count except where a
match site has another from_tag position within the context window after
it; only those sentences are re-simulated, and only for candidates whose
argument tags include the rule's from_tag or to_tag.

Both stages run on the tagger's code. Lexical candidates are the arguments
``rules.lexical_template_matches`` accepts and the current guesses advance
by ``rules.apply_lexical_rules``. Contextual training starts from the
tagger's ``rules.Tagger.initial``, templates come from ``CONTEXT_TABLE``
and rules are applied by ``rules.rewrite_sentence``; only ``_count`` spells
out the templates, for speed, and a test pins it to the table. The
brute-force scorers the greedy steps are checked against live under
``tests/``.
"""

from __future__ import annotations

import bisect
import logging
import math
import random
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from .corpus import TaggedCorpus, TaggerError, select_sentences
from .lexicon import (InitialRuleChain, Lexicon, build_lexicon,
                      default_greek_chain, initial_tag)
from .rules import (CONTEXT_WINDOW, CONTEXTUAL_TEMPLATES, WORD_TEMPLATES,
                    ContextualRule, LexicalRule, TaggerModel,
                    apply_lexical_rules, build_affix_extension_maps,
                    context_args, context_checks, lexical_candidate_features,
                    rewrite_sentence)

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
    guess lexicon, the rest drive rule learning."""
    n = len(corpus.sentences)
    if n < 2:
        raise TaggerError("need at least 2 sentences to split, got %d" % n)
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
    gold_counts = defaultdict(Counter)
    for sent in rule_part.sentences:
        for tok in sent:
            if tok.word not in guess_lexicon:
                gold_counts[tok.word][tok.tag] += 1
    tags = {word: initial_tag(word, guess_lexicon, chain, rule_part.tagset)
            for word in gold_counts}
    targets = {word: (min(counts, key=lambda t: (-counts[t], t)),
                      sum(counts.values()))
               for word, counts in gold_counts.items()}
    return tags, targets


class _LexicalLearner:
    """Exact greedy lexical learning that keeps its counts across steps.

    A candidate key is ``(template, arg, from_tag)``, from_tag "" for an
    unconditioned rule, so that keys sort like the rules they stand for;
    ``(template, arg)`` is the key's feature. Each unknown type adds its
    token count under every key it matches: the unconditioned one and the
    one conditioned on its current tag. Per key the learner keeps, by gold
    tag, the counts of the types in error (``fixes``: the good count of the
    rule retagging to that gold tag) and of the types already correct
    (``correct``: a rule retagging to another tag breaks them, one
    retagging to their own tag leaves them be).

    Accepting a rule retags only the types that hold its feature (``index``)
    and satisfy its from_tag. For each type it retagged, the counts under
    the old tag are subtracted and those under the new tag added, and only
    the keys so touched are scored again. Candidates reaching the threshold
    are kept in ``live``.
    """

    def __init__(self, tags: dict, targets: dict, features: dict,
                 lexicon: Lexicon, threshold: int):
        self.tags = dict(tags)
        self.targets = targets
        self.features = features
        self.lexicon = lexicon
        self.threshold = threshold
        self.fixes = {}     # key -> {gold tag: tokens of matched types in error}
        self.correct = {}   # key -> {tag: tokens of matched correct types}
        self.live = {}      # key -> {to_tag: (good, bad)}, net >= threshold
        self.index = defaultdict(list)  # feature -> types holding it
        for word, tag in self.tags.items():
            for feat in features[word]:
                self.index[feat].append(word)
            self._count(word, tag, 1, None)
        for key in self.fixes:
            self._rescore(key)

    def _count(self, word, tag, sign, touched):
        """Add (sign 1) or subtract (sign -1) the counts of one type under
        ``tag``; every key seen goes into ``touched`` (unless None)."""
        gold, count = self.targets[word]
        table = self.correct if tag == gold else self.fixes
        delta = sign * count
        keys = [feat + (frm,) for feat in self.features[word]
                for frm in ("", tag)]
        for key in keys:
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
        if touched is not None:
            touched.update(keys)

    def _rescore(self, key):
        self.live.pop(key, None)
        fx = self.fixes.get(key)
        if fx is None:
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
        (template, arg, frm), to, score = best
        return LexicalRule(template, arg, frm or None, to), score

    def apply(self, rule: LexicalRule) -> None:
        """Apply a rule to the types holding its feature and bring the
        counts and scores of everything it retagged up to date."""
        old = {word: self.tags[word]
               for word in self.index.get((rule.template, rule.arg), ())}
        touched = set()
        for word, tag in apply_lexical_rules((rule,), old,
                                             self.lexicon).items():
            if tag != old[word]:
                self._count(word, old[word], -1, touched)
                self._count(word, tag, 1, touched)
                self.tags[word] = tag
        for key in touched:
            self._rescore(key)


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


def _greedy(stage: str, learner, errors: int, config: TrainConfig) -> tuple:
    """The rules a learner accepts, in order: at each step the candidate
    its ``best()`` returns, until none reaches the threshold or
    ``config.max_rules_per_phase`` are accepted. ``errors`` is the error
    count before the first step. Every accepted rule nets at least the
    threshold (>= 1), so the count falling below zero means applying the
    rules and scoring them disagree; fail then rather than loop for ever."""
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
    return tuple(rules)


def learn_lexical_rules(train: TaggedCorpus,
                        chain: InitialRuleChain = default_greek_chain(),
                        config: TrainConfig = TrainConfig()):
    """Returns (lexicon built from the FULL training corpus, ordered lexical
    rules learned on the held-out-lexicon split)."""
    if not train.sentences:
        raise TaggerError("cannot train on an empty corpus")
    lex_part, rule_part = split_for_unknown_training(
        train, config.lexicon_split_fraction, config.seed)
    guess = build_lexicon(lex_part)
    tags, targets = unknown_types(rule_part, guess, chain)
    extension_maps = build_affix_extension_maps(guess, config.max_affix_len)
    features = {
        word: lexical_candidate_features(word, guess, config.max_affix_len,
                                         extension_maps)
        for word in tags
    }
    # only the features need the maps: free them before the learner's
    # counts are built
    del extension_maps
    learner = _LexicalLearner(tags, targets, features, guess,
                              config.score_threshold)
    errors = sum(count for word, (gold, count) in targets.items()
                 if tags[word] != gold)
    return build_lexicon(train), _greedy("lexical", learner, errors, config)


def initial_contextual_state(train: TaggedCorpus, lexicon: Lexicon,
                             lexical_rules, chain: InitialRuleChain):
    """(state, gold): per-sentence (words, tags) from ``Tagger.initial`` of
    a model with these parts, which refuses any but the default chain, and
    the gold tag lists, token-aligned."""
    model = TaggerModel(train.tagset, lexicon, chain, lexical_rules, ())
    return (list(model.tagger.initial(train.sentences)),
            [[tok.tag for tok in sent] for sent in train.sentences])


def token_errors(state, gold) -> int:
    return sum(1 for (_, tags), gtags in zip(state, gold)
               for t, g in zip(tags, gtags) if t != g)


_TEMPLATE_NAMES = tuple(sorted(CONTEXTUAL_TEMPLATES))


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
    static count must read an earlier match within the context window, so
    a sentence needs re-simulating for a tag key only if a match site there
    has another from_tag position at most CONTEXT_WINDOW to its right
    (``inter``: tag key -> sorted sentence numbers). Once a key has a
    candidate that can be perturbed and may reach the threshold, the
    learner keeps the sum of its corrections (dynamic minus static counts)
    over those sentences in ``corrections``.

    Accepting a rule rewrites only the sentences that hold its from_tag
    and its context args, the only ones it can change (``context_args``):
    ``holders`` maps each tag to the sentences holding it, and
    ``word_holders`` each word, built when the first word rule is
    accepted. In each sentence it changed, the contributions of the
    positions within CONTEXT_WINDOW of a retagged position are subtracted
    under the old tags and added under the new ones. No other position's
    keys or near status can change: the keys at position p read only the
    tags at p-3..p+3, the words at p-1 and p+1 and the gold tag at p, and
    its near status the tags at p..p+3. Since ``inter`` and the
    corrections need the near keys of the whole sentence, the near keys of
    the positions outside that window are added to both sides unchanged.
    Only the keys so touched are scored again. Candidates reaching the
    threshold are kept in ``live``.
    """

    def __init__(self, state, gold, threshold: int):
        tag_names = sorted({t for _, tags in state for t in tags}
                           | {t for gtags in gold for t in gtags})
        word_names = sorted({w for words, _ in state for w in words})
        self.tag_names, self.word_names = tag_names, word_names
        self.tag_id = {t: i for i, t in enumerate(tag_names)}
        self.word_id = {w: i for i, w in enumerate(word_names)}
        self.T = len(tag_names)
        self.R = max(self.T, len(word_names), 1)
        self.base = {name: rank * self.R * self.R * self.T
                     for rank, name in enumerate(_TEMPLATE_NAMES)}
        self.threshold = threshold
        self.words = [tuple(self.word_id[w] for w in words)
                      for words, _ in state]
        self.tags = [[self.tag_id[t] for t in tags] for _, tags in state]
        self.gold = [[self.tag_id[t] for t in gtags] for gtags in gold]
        self.correct = {}       # key -> match sites already correct
        self.fixes = {}         # key -> {gold tag: match sites in error}
        self.inter = {}         # tag key -> array of sentence numbers
        self.corrections = {}   # key -> (moved, own, ...), see _correct
        self.live = {}          # key -> {to_tag: (good, bad)}, net >= threshold
        self.holders = defaultdict(set)  # tag -> sentences holding it
        self.word_holders = None  # word -> sentences holding it, see apply
        # confusion[tag][gold]: tokens currently tagged tag whose gold is gold
        self.confusion = [[0] * self.T for _ in range(self.T)]
        for s, tags in enumerate(self.tags):
            for t in set(tags):
                self.holders[t].add(s)
            for t, g in zip(tags, self.gold[s]):
                self.confusion[t][g] += 1
            near = set()
            self._count(s, tags, 1, None, near, range(len(tags)))
            for k in near:
                sents = self.inter.get(k)
                if sents is None:
                    self.inter[k] = array("l", (s,))
                else:
                    sents.append(s)
        for key in self.fixes:
            self._rescore(key)

    def _count(self, s, tags, sign, touched, near, positions):
        """Add (sign 1) or subtract (sign -1) the match sites at
        ``positions`` of sentence ``s`` under ``tags``; sign 0 counts
        nothing. Every key seen goes into ``touched`` (unless None), every
        tag key at a site with a near twin into ``near``.

        The keys of each template are written out here for speed rather
        than read from ``CONTEXT_TABLE``; ``TestCountMatchesTemplateTable``
        checks them against the table."""
        words = self.words[s]
        gtags = self.gold[s]
        correct, fixes = self.correct, self.fixes
        T = self.T
        RT = self.R * T
        base = self.base
        PW, NW = base["PREVWD"], base["NEXTWD"]
        PT, NT = base["PREVTAG"], base["NEXTTAG"]
        P2, N2 = base["PREV2TAG"], base["NEXT2TAG"]
        P12, N12 = base["PREV1OR2TAG"], base["NEXT1OR2TAG"]
        P123, N123 = base["PREV1OR2OR3TAG"], base["NEXT1OR2OR3TAG"]
        PB, NB, SR = base["PREVBIGRAM"], base["NEXTBIGRAM"], base["SURROUNDTAG"]
        n = len(tags)
        for p in positions:
            f = tags[p]
            keys = []
            if p >= 1:
                keys.append(PW + words[p - 1] * RT + f)
            if p + 1 < n:
                keys.append(NW + words[p + 1] * RT + f)
            n_word = len(keys)
            if p >= 1:
                t1 = tags[p - 1]
                x1 = t1 * RT + f
                keys.append(PT + x1)
                keys.append(P12 + x1)
                keys.append(P123 + x1)
                if p >= 2:
                    t2 = tags[p - 2]
                    x2 = t2 * RT + f
                    keys.append(P2 + x2)
                    if t2 != t1:
                        keys.append(P12 + x2)
                        keys.append(P123 + x2)
                    keys.append(PB + x2 + t1 * T)
                    if p >= 3:
                        t3 = tags[p - 3]
                        if t3 != t1 and t3 != t2:
                            keys.append(P123 + t3 * RT + f)
            if p + 1 < n:
                u1 = tags[p + 1]
                y1 = u1 * RT + f
                keys.append(NT + y1)
                keys.append(N12 + y1)
                keys.append(N123 + y1)
                if p + 2 < n:
                    u2 = tags[p + 2]
                    y2 = u2 * RT + f
                    keys.append(N2 + y2)
                    if u2 != u1:
                        keys.append(N12 + y2)
                        keys.append(N123 + y2)
                    keys.append(NB + y1 + u2 * T)
                    if p + 3 < n:
                        u3 = tags[p + 3]
                        if u3 != u1 and u3 != u2:
                            keys.append(N123 + u3 * RT + f)
                if p >= 1:
                    keys.append(SR + x1 + u1 * T)
            g = gtags[p]
            if not sign:
                pass  # only the near keys are asked for
            elif g == f:
                for k in keys:
                    c = correct.get(k, 0) + sign
                    if c:
                        correct[k] = c
                    else:
                        del correct[k]
            else:
                for k in keys:
                    fx = fixes.get(k)
                    if fx is None:
                        fixes[k] = {g: sign}
                        continue
                    c = fx.get(g, 0) + sign
                    if c:
                        fx[g] = c
                    elif len(fx) > 1:
                        del fx[g]
                    else:
                        del fixes[k]
            if touched is not None:
                touched.update(keys)
            if f in tags[p + 1:p + 1 + CONTEXT_WINDOW]:
                near.update(keys[n_word:])

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

    def _rescore(self, key):
        self.live.pop(key, None)
        fx = self.fixes.get(key)
        if not fx:
            return
        bad = self.correct.get(key, 0)
        template, args, frm = self._decode(key)
        word = template in WORD_TEMPLATES
        frm_in_args = frm in args and not word
        with_gold = self.confusion[frm]
        totals = None
        # Only track a key whose perturbable candidates can reach the
        # threshold: a to_tag outside the args only removes match sites
        # (so net <= good), one in the args only adds sites when from_tag
        # is not an arg (net <= with_gold[to] - bad), and in any case no
        # more than with_gold[to] positions can be fixed.
        for to, good in fx.items():
            if word or not (frm_in_args or to in args):
                continue
            if to not in args:
                bound = good
            elif frm_in_args:
                bound = with_gold[to]
            else:
                bound = with_gold[to] - bad
            if bound >= self.threshold:
                totals = self.corrections.get(key) or self._track(key)
                break
        else:
            self.corrections.pop(key, None)
        live = {}
        for to, good in fx.items():
            dg = db = 0
            if not word and (frm_in_args or to in args):
                if totals is None:
                    continue
                moved, own = totals[:2]
                if to in args:
                    dg, db = own.get(to, (0, 0))
                else:
                    dg, db = moved.get(to, 0), moved.get(frm, 0)
            if good + dg - bad - db >= self.threshold:
                live[to] = (good + dg, bad + db)
        if live:
            self.live[key] = live

    def _track(self, key):
        """Start keeping the corrections of a key that can be perturbed."""
        template, args, frm = self._decode(key)
        totals = self.corrections[key] = (
            {}, {}, context_checks(template, args), frm, frm in args,
            tuple(set(args) - {frm}))
        for s in self.inter.get(key, ()):
            self._correct(totals, s, self.tags[s], 1)
        return totals

    def _correct(self, totals, s, tags, sign):
        """Add ``sign`` times the dynamic minus static counts of a key in
        sentence s under ``tags`` to ``totals``, for every to_tag at once.

        A to_tag outside the args moves the same positions whichever it is,
        so one simulation gives ``moved``: gold tag -> change in the number
        of moved positions with that gold. Each arg other than from_tag is
        simulated on its own, giving ``own``: arg -> (d_good, d_bad).
        ``totals`` also holds, built once in ``_track``, the key's context
        checks, its from_tag, whether that is an arg, and the other args.
        """
        moved, own, checks, frm, frm_in_args, others = totals
        words, gtags = self.words[s], self.gold[s]
        positions = [p for p, t in enumerate(tags) if t == frm]
        # moving to frm itself changes nothing: the static match sites
        _, static = rewrite_sentence(checks, frm, words, tags, positions)
        if frm_in_args:
            _, dynamic = rewrite_sentence(checks, -1, words, tags, positions)
            for p in dynamic:
                moved[gtags[p]] = moved.get(gtags[p], 0) + sign
            for p in static:
                moved[gtags[p]] = moved.get(gtags[p], 0) - sign
        for a in others:
            _, dynamic = rewrite_sentence(checks, a, words, tags, positions)
            dg = db = 0
            for p in dynamic:
                dg += gtags[p] == a
                db += gtags[p] == frm
            for p in static:
                dg -= gtags[p] == a
                db -= gtags[p] == frm
            if dg or db:
                og, ob = own.get(a, (0, 0))
                own[a] = (og + sign * dg, ob + sign * db)

    def best(self):
        """(rule, score) of the candidate ``_best`` picks; None when no
        candidate reaches the threshold."""
        best = _best(self.live)
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
        """Apply a rule to the sentences holding its from_tag and its
        context args (see ``context_args``) and bring the counts and scores
        of everything it changed up to date."""
        if rule.template in WORD_TEMPLATES:
            ids = self.word_id
            if self.word_holders is None:
                self.word_holders = defaultdict(set)
                for s, words in enumerate(self.words):
                    for w in words:
                        self.word_holders[w].add(s)
            index = self.word_holders
        else:
            ids, index = self.tag_id, self.holders
        checks = context_checks(rule.template,
                                tuple(ids[a] for a in rule.args))
        frm, to = self.tag_id[rule.from_tag], self.tag_id[rule.to_tag]
        touched = set()
        holders = self.holders[frm]
        for s in holders.intersection(*(index[a]
                                        for a in context_args(checks))):
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
            # only the keys and near status of the positions within the
            # window of a moved position can change
            n = len(old)
            window = {q for p in moved
                      for q in range(max(p - CONTEXT_WINDOW, 0),
                                     min(p + CONTEXT_WINDOW + 1, n))}
            was_near, now_near = set(), set()
            self._count(s, old, -1, touched, was_near, window)
            self._count(s, new, 1, touched, now_near, window)
            # ``inter`` and the corrections need the sentence's near keys
            # outside the window too, the same in both
            twins = [p for p in range(n) if p not in window
                     and old[p] in old[p + 1:p + 1 + CONTEXT_WINDOW]]
            if twins:
                outside = set()
                self._count(s, old, 0, touched, outside, twins)
                was_near |= outside
                now_near |= outside
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
            for k in was_near:
                totals = self.corrections.get(k)
                if totals is not None:
                    self._correct(totals, s, old, -1)
            for k in now_near:
                totals = self.corrections.get(k)
                if totals is not None:
                    self._correct(totals, s, new, 1)
        for key in touched:
            self._rescore(key)


def learn_contextual_rules(train: TaggedCorpus, lexicon: Lexicon,
                           lexical_rules,
                           chain: InitialRuleChain = default_greek_chain(),
                           config: TrainConfig = TrainConfig()) -> tuple:
    if not train.sentences:
        raise TaggerError("cannot train on an empty corpus")
    state, gold = initial_contextual_state(train, lexicon, lexical_rules, chain)
    learner = _ContextualLearner(state, gold, config.score_threshold)
    return _greedy("contextual", learner, token_errors(state, gold), config)


def train_model(train: TaggedCorpus,
                config: TrainConfig = TrainConfig()) -> TaggerModel:
    """Both training stages in order, with the default initial rule chain;
    deterministic in (train, config.seed)."""
    lexicon, lexical_rules = learn_lexical_rules(train, config=config)
    contextual_rules = learn_contextual_rules(train, lexicon, lexical_rules,
                                              config=config)
    return TaggerModel(train.tagset, lexicon, default_greek_chain(),
                       lexical_rules, contextual_rules)
