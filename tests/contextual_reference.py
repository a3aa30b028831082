"""Reference for the incremental contextual learner: one greedy step that
rebuilds every candidate's site list over the whole corpus.

This is the learner's former per-iteration rescan, kept as a test oracle.
Each step must pick the same (rule, RuleScore) as
``learner._ContextualLearner.best`` on the same state. The templates are
written out by hand here, not read from ``rules.CONTEXT_TABLE``, so that a
slip in the table shows up as a disagreement.
"""

import bisect

from tbltagger.learner import RuleScore
from tbltagger.rules import ContextualRule

from oracles import simulate_sentence

WINDOW = 3  # the farthest tag any template reads
WORD_TEMPLATES = ("PREVWD", "NEXTWD")


def has_near(sorted_positions, p, window=WINDOW):
    """True if another position within `window` of p is in the sorted list."""
    i = bisect.bisect_left(sorted_positions, p - window)
    while i < len(sorted_positions) and sorted_positions[i] <= p + window:
        if sorted_positions[i] != p:
            return True
        i += 1
    return False


def rescan_contextual_iteration(state, gold, threshold):
    """One greedy step with exact dynamic scoring.

    A single pass collects, per (template, args, from_tag) key, every
    position the key matches in the current state. Applying a rule changes
    matched positions from from_tag to to_tag, which can perturb a tag
    predicate only where the predicate's argument equals one of those two
    tags; word predicates are never perturbed. For all other candidates the
    dynamic net equals the static match count. The rare perturbable
    candidates fall back to re-simulating the sentences in which a match
    site has another from_tag position within the context window.
    """
    sites = {}      # ((template, *args), from_tag) -> [(sent, pos), ...]
    tos = {}        # same key -> {gold tags of matching error sites}
    pos_by = {}     # (sent, tag) -> ascending positions
    for s in range(len(state)):
        words, tags = state[s]
        gtags = gold[s]
        n = len(tags)
        for p in range(n):
            frm = tags[p]
            plist = pos_by.get((s, frm))
            if plist is None:
                pos_by[(s, frm)] = [p]
            else:
                plist.append(p)
            inst = []
            if p >= 1:
                t1 = tags[p - 1]
                inst.append(("PREVTAG", t1))
                inst.append(("PREVWD", words[p - 1]))
                inst.append(("PREV1OR2TAG", t1))
                inst.append(("PREV1OR2OR3TAG", t1))
                if p >= 2:
                    t2 = tags[p - 2]
                    inst.append(("PREV2TAG", t2))
                    if t2 != t1:
                        inst.append(("PREV1OR2TAG", t2))
                        inst.append(("PREV1OR2OR3TAG", t2))
                    inst.append(("PREVBIGRAM", t2, t1))
                    if p >= 3:
                        t3 = tags[p - 3]
                        if t3 != t1 and t3 != t2:
                            inst.append(("PREV1OR2OR3TAG", t3))
            if p + 1 < n:
                u1 = tags[p + 1]
                inst.append(("NEXTTAG", u1))
                inst.append(("NEXTWD", words[p + 1]))
                inst.append(("NEXT1OR2TAG", u1))
                inst.append(("NEXT1OR2OR3TAG", u1))
                if p + 2 < n:
                    u2 = tags[p + 2]
                    inst.append(("NEXT2TAG", u2))
                    if u2 != u1:
                        inst.append(("NEXT1OR2TAG", u2))
                        inst.append(("NEXT1OR2OR3TAG", u2))
                    inst.append(("NEXTBIGRAM", u1, u2))
                    if p + 3 < n:
                        u3 = tags[p + 3]
                        if u3 != u1 and u3 != u2:
                            inst.append(("NEXT1OR2OR3TAG", u3))
                if p >= 1:
                    inst.append(("SURROUNDTAG", tags[p - 1], u1))
            err = frm != gtags[p]
            g = gtags[p]
            site = (s, p)
            for it in inst:
                key = (it, frm)
                lst = sites.get(key)
                if lst is None:
                    sites[key] = [site]
                else:
                    lst.append(site)
                if err:
                    to_set = tos.get(key)
                    if to_set is None:
                        tos[key] = {g}
                    else:
                        to_set.add(g)
    best = None
    for key, to_set in tos.items():
        it, frm = key
        template = it[0]
        site_list = sites[key]
        n_correct = 0
        gold_counts = {}
        for s, p in site_list:
            g = gold[s][p]
            if g == frm:
                n_correct += 1
            else:
                gold_counts[g] = gold_counts.get(g, 0) + 1
        word_based = template in WORD_TEMPLATES
        frm_in_args = not word_based and frm in it[1:]
        interacting = None  # computed lazily, shared across to_tags
        for to in to_set:
            if word_based or not (frm_in_args or to in it[1:]):
                good = gold_counts.get(to, 0)
                bad = n_correct
            else:
                if interacting is None:
                    interacting = {
                        s for s, p in site_list
                        if has_near(pos_by[(s, frm)], p)
                    }
                if not interacting:
                    good = gold_counts.get(to, 0)
                    bad = n_correct
                else:
                    good = bad = 0
                    for s, p in site_list:
                        if s in interacting:
                            continue
                        g = gold[s][p]
                        if g == frm:
                            bad += 1
                        elif g == to:
                            good += 1
                    for s in interacting:
                        g2, b2 = simulate_sentence(
                            ContextualRule(template, it[1:], frm, to),
                            state[s], gold[s])
                        good += g2
                        bad += b2
            cand_key = (-(good - bad), (template, it[1:], frm, to))
            if best is None or cand_key < best[0]:
                best = (cand_key, good, bad)
    if best is None:
        return None
    (_, (template, args, frm, to)), good, bad = best[0], best[1], best[2]
    score = RuleScore(good, bad)
    if score.net < threshold:
        return None
    return ContextualRule(template, args, frm, to), score
