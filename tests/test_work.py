"""The algorithms' work on one fixed, seeded workload, counted through
wrappers and held under the ceilings in ``work_ceilings.json``.

Losing a filter, a skip, a memo or a sharing of the learner or the
tagger (the left-offset filter of the contextual learner's ``near`` keys,
the ``context_args`` filter of a transducer stage, the transducer's memo
of its transitions, a stage's early emission of the symbols it decides,
the one object per distinct lexical candidate feature) keeps every model
and output byte-identical, so no output test notices it; these counts
do. The features are counted as the distinct objects in the lists the
learner is given. The tagger is counted twice: with the model trained on
the sentences as they are, whose rules read to the left, and with one
trained on them reversed, whose rules read to the right. A change that
cuts work lowers the ceilings it cuts in the same change."""

import json
from collections import Counter
from pathlib import Path

from tbltagger import learner as learner_module
from tbltagger import rules as rules_module
from tbltagger.corpus import TaggedCorpus, select_sentences
from tbltagger.evaluate import (SynthSpec, count_hits,
                                generate_synthetic_corpus)
from tbltagger.learner import TrainConfig, train_model

CEILINGS = Path(__file__).with_name("work_ceilings.json")


def test_work_stays_under_its_ceilings(monkeypatch):
    # 500 sentences to train, 200 to tag, each as they are and reversed;
    # about 0.2 s
    corpus = generate_synthetic_corpus(
        SynthSpec(n_stems=80, n_sentences=700, seed=5))
    reversed_corpus = TaggedCorpus(tuple(sent[::-1] for sent
                                         in corpus.sentences), corpus.tagset)
    mirrored = train_model(select_sentences(reversed_corpus, range(500)),
                           TrainConfig())
    counts = Counter()

    def count(owner, name, key, weight=lambda *args: 1):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += weight(*args)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    contextual = learner_module._ContextualLearner
    count(learner_module, "rewrite_sentence", "learner.rewrite_sentence")
    count(contextual, "_simulate", "learner._ContextualLearner._simulate")
    count(contextual, "_rescore", "learner._ContextualLearner._rescore")
    count(learner_module._LexicalLearner, "_rescore",
          "learner._LexicalLearner._rescore")
    count(learner_module, "_add", "learner._add keys",
          lambda table, gold, deltas: len(deltas))
    update = learner_module._update

    def counted_update(correct, fixes, moves):
        # the keys the contextual learner's tables and sums take: spelled
        # once per distinct n-gram, not once per position
        moves = list(moves)
        counts["learner._update keys"] += sum(len(keys)
                                              for _, _, keys in moves)
        return update(correct, fixes, moves)
    monkeypatch.setattr(learner_module, "_update", counted_update)
    features = learner_module.lexical_candidate_features

    def counted_features(*args):
        # one object per distinct feature, not one per word and feature
        result = features(*args)
        counts["rules.lexical_candidate_features objects"] += len(
            {id(f) for feats in result.values() for f in feats})
        return result
    monkeypatch.setattr(learner_module, "lexical_candidate_features",
                        counted_features)
    model = train_model(select_sentences(corpus, range(500)), TrainConfig())
    count(rules_module, "rewrite_sentence",
          "rules.rewrite_sentence while tagging")
    count(rules_module._Machine, "_build",
          "rules._Machine._build while tagging")
    count_hits(model.tagger, corpus.sentences[500:])
    monkeypatch.undo()
    count(rules_module._Machine, "_build",
          "rules._Machine._build while tagging right to left")
    count_hits(mirrored.tagger, reversed_corpus.sentences[500:])
    # a different model is a different workload: measure the ceilings again
    assert (len(model.lexical_rules), len(model.contextual_rules)) == (7, 21)
    assert {rule.template for rule in mirrored.contextual_rules} <= {
        "NEXTTAG", "NEXT2TAG", "NEXT1OR2TAG", "NEXT1OR2OR3TAG", "NEXTWD",
        "NEXTBIGRAM"}
    ceilings = json.loads(CEILINGS.read_text(encoding="utf-8"))
    assert set(counts) == set(ceilings)
    assert {key: n for key, n in counts.items() if n > ceilings[key]} == {}
