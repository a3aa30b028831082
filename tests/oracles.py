"""Brute-force reference implementations that the learner is checked
against: candidate generation, direct scoring of one candidate, and the
exhaustive argmax over a candidate set.

They score each candidate on its own, by a plain pass over the corpus, so
they share no counting with the learner. ``context_instantiations`` reads
the template table; ``contextual_reference.py`` holds an enumeration of the
templates written out by hand.
"""

from collections import defaultdict

from tbltagger.learner import (RuleScore, build_affix_extension_maps,
                               lexical_candidate_features)
from tbltagger.rules import (CONTEXT_TABLE, WORDS, ContextualRule,
                             LexicalRule, contextual_rule_matches,
                             lexical_rule_matches)


def generate_lexical_candidates(states: dict, lexicon, max_affix_len: int) -> set:
    """Candidates drawn from currently mis-tagged types, retagging to the
    type's gold tag, optionally conditioned on its current tag."""
    extension_maps = build_affix_extension_maps(lexicon, max_affix_len)
    candidates = set()
    for word, st in states.items():
        if st.current == st.gold:
            continue
        for template, arg in lexical_candidate_features(
                word, lexicon, max_affix_len, extension_maps):
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


def select_best_rule(candidates, scorer, threshold: int):
    """Maximal net score; ties broken by the rule sort key (template, args,
    from_tag, to_tag ascending). None when the best net is below threshold."""
    best = None
    for rule in candidates:
        score = scorer(rule)
        key = (-score.net, rule.sort_key())
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
