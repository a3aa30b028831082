"""Reference for the incremental lexical learner: one greedy step that
recounts the features of every unknown type.

This is the learner's former per-iteration rescan, kept as a test oracle.
Each step must pick the same (rule, RuleScore) as
``learner._LexicalLearner.best`` on the same tags.
"""

from tbltagger.learner import RuleScore
from tbltagger.rules import LexicalRule


def rescan_lexical_iteration(tags: dict, targets: dict, features: dict,
                             threshold: int):
    """One greedy step: best candidate by net score with the documented
    tie-break, scored via count aggregation per (feature, from_tag[, to])
    key. Equivalent to scoring every generated candidate directly."""
    fix = {}            # (feat, from_tag, to_tag) -> weighted fixes
    correct = {}        # (feat, from_tag) -> weighted matches on correct types
    correct_gold = {}   # (feat, from_tag, gold) -> subset of the above
    for word, tag in tags.items():
        gold, count = targets[word]
        feats = features[word]
        if tag == gold:
            for f in feats:
                for ft in (None, tag):
                    k = (f, ft)
                    correct[k] = correct.get(k, 0) + count
                    kg = (f, ft, gold)
                    correct_gold[kg] = correct_gold.get(kg, 0) + count
        else:
            for f in feats:
                for ft in (None, tag):
                    k = (f, ft, gold)
                    fix[k] = fix.get(k, 0) + count
    best = None
    for (feat, ft, to), good in fix.items():
        bad = correct.get((feat, ft), 0) - correct_gold.get((feat, ft, to), 0)
        key = (-(good - bad), (feat[0], feat[1], ft or "", to))
        if best is None or key < best[0]:
            best = (key, (feat, ft, to), good, bad)
    if best is None:
        return None
    _, (feat, ft, to), good, bad = best
    score = RuleScore(good, bad)
    if score.net < threshold:
        return None
    return LexicalRule(feat[0], feat[1], ft, to), score
