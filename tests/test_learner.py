"""Greedy two-stage training: splits, scoring, selection, equivalence of the
aggregated greedy step with direct per-candidate scoring, and monotonicity."""

import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbltagger.learner as learner_module
import tbltagger.rules as rules_module
from tbltagger.corpus import (TaggedCorpus, TaggerError, Token,
                              select_sentences, truncate_to_words)
from tbltagger.evaluate import SynthSpec, generate_synthetic_corpus
from tbltagger.learner import (RuleScore, TrainConfig,
                               initial_contextual_state, learn_lexical_rules,
                               learn_contextual_rules,
                               split_for_unknown_training, token_errors,
                               train_model, train_model_and_errors,
                               unknown_types,
                               _ContextualLearner, _LexicalLearner)
from tbltagger.lexicon import (Lexicon, build_lexicon, default_greek_chain)
from tbltagger.rules import (CONTEXT_TABLE, CONTEXT_WINDOW, TAGS,
                             ContextualRule, LexicalRule,
                             LEXICAL_TEMPLATES, WORD_TEMPLATES,
                             apply_contextual_rule, apply_lexical_rules,
                             lexical_candidate_features, serialize_rules)

from conftest import make_tagset
from contextual_reference import rescan_contextual_iteration
from lexical_reference import rescan_lexical_iteration
from oracles import (TypeState, apply_lexical_rule_to_states,
                     context_instantiations, dynamic_contextual_score,
                     generate_contextual_candidates,
                     generate_lexical_candidates, initial_state,
                     reference_lexical_template_matches,
                     score_contextual_candidate, score_lexical_candidate,
                     select_best_rule, type_states, weighted_type_errors)
from test_rules import (TAGGING_CHARS, TAGGING_TAGS, lexical_rules_st,
                        tagged_sentences_st)


def mini_spec(seed, **kw):
    params = dict(
        n_stems=8,
        suffix_paradigms=(("ος", "NNM"), ("η", "NNF"), ("ει", "VRB")),
        ambiguity_rate=0.4,
        context_rule_strength=1.0,
        n_sentences=20,
        sentence_len_range=(4, 9),
        seed=seed,
    )
    params.update(kw)
    return SynthSpec(**params)


# suffixes that end in one another, so that lexical rules retag types
# that earlier rules retagged
OVERLAPPING_SUFFIXES = (("ος", "NNM"), ("ιος", "ADJ"), ("η", "NNF"),
                        ("ει", "VRB"), ("α", "NFP"), ("μα", "NNT"))


def lexical_learning_state(corpus, config):
    """The inputs stage one iterates on: guess lexicon and the (tags,
    targets) of the unknown types of the rule-learning half."""
    lex_part, rule_part = split_for_unknown_training(
        corpus, config.lexicon_split_fraction, config.seed)
    guess = build_lexicon(lex_part)
    return guess, unknown_types(rule_part, guess, default_greek_chain())


def candidate_features(words, guess, max_affix_len):
    """word -> its lexical candidate features, as the learner lists them."""
    return lexical_candidate_features(words, guess, max_affix_len)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.score_threshold == 2
        assert config.lexicon_split_fraction == 0.5
        assert config.max_affix_len == 4
        assert config.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"score_threshold": 0},
        {"lexicon_split_fraction": 0.0},
        {"lexicon_split_fraction": 1.0},
        {"max_affix_len": 0},
        {"max_rules_per_phase": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(TaggerError):
            TrainConfig(**kwargs)


class TestSplitForUnknownTraining:
    def _corpus(self, n):
        ts = make_tagset()
        return TaggedCorpus(tuple((Token("w%d" % i, "NN"),)
                                  for i in range(n)), ts)

    def test_half_split(self):
        lex, rule = split_for_unknown_training(self._corpus(10), 0.5, 0)
        assert len(lex.sentences) == 5
        assert len(rule.sentences) == 5

    def test_ceil_on_odd(self):
        lex, rule = split_for_unknown_training(self._corpus(7), 0.5, 0)
        assert len(lex.sentences) == 4
        assert len(rule.sentences) == 3

    def test_disjoint_and_covering(self):
        c = self._corpus(13)
        lex, rule = split_for_unknown_training(c, 0.4, 5)
        words = sorted(s[0].word for s in lex.sentences + rule.sentences)
        assert words == sorted(s[0].word for s in c.sentences)

    def test_deterministic(self):
        c = self._corpus(9)
        assert split_for_unknown_training(c, 0.5, 3) == \
            split_for_unknown_training(c, 0.5, 3)

    def test_too_small(self):
        with pytest.raises(TaggerError):
            split_for_unknown_training(self._corpus(1), 0.5, 0)


class TestBuildUnknownTypeStates:
    def test_modal_gold_with_tie_break(self):
        ts = make_tagset()
        sents = ((Token("ξκρ", "VB"), Token("ξκρ", "NN"), Token("ξκρ", "NN"),
                  Token("ζλμ", "VB"), Token("ζλμ", "AT")),)
        rule_part = TaggedCorpus(sents, ts)
        tags, targets = unknown_types(rule_part, Lexicon({}),
                                      default_greek_chain())
        assert targets["ξκρ"] == ("NN", 3)
        # tie between AT and VB -> ascending tag name
        assert targets["ζλμ"] == ("AT", 2)
        # unknown lowercase Greek word starts at the fall-through role tag
        assert tags["ξκρ"] == ts.roles["NOUN_FEM_SG"]

    def test_known_words_excluded(self):
        ts = make_tagset()
        rule_part = TaggedCorpus(((Token("a", "NN"), Token("b", "VB")),), ts)
        tags, targets = unknown_types(
            rule_part, Lexicon({"a": (("NN", 1),)}), default_greek_chain())
        assert set(tags) == set(targets) == {"b"}

    def test_first_occurrence_order(self):
        ts = make_tagset()
        sents = ((Token("β", "NN"), Token("a", "NN"), Token("γ", "VB")),
                 (Token("γ", "NN"), Token("α", "AT"), Token("β", "VB")))
        tags, targets = unknown_types(
            TaggedCorpus(sents, ts), Lexicon({"a": (("NN", 1),)}),
            default_greek_chain())
        assert list(tags) == list(targets) == ["β", "γ", "α"]


@st.composite
def start_state_cases_st(draw):
    """(corpus, lexicon, lexical rules): a lexicon built from a prefix of
    the corpus, so that the rest may hold unknown words, and rules over
    the corpus's few characters."""
    word = st.text(TAGGING_CHARS, min_size=1, max_size=4)
    affix = st.text(TAGGING_CHARS, min_size=1, max_size=2)
    corpus = TaggedCorpus(draw(tagged_sentences_st(word, 6)), make_tagset())
    known = draw(st.integers(0, len(corpus.sentences)))
    lexicon = (build_lexicon(select_sentences(corpus, range(known)))
               if known else Lexicon({}))
    lexical = draw(st.lists(lexical_rules_st(affix, TAGGING_TAGS),
                            max_size=5))
    return corpus, lexicon, tuple(lexical)


class TestInitialContextualState:
    @given(start_state_cases_st())
    @settings(max_examples=100, deadline=None)
    def test_equals_reference(self, case):
        corpus, lexicon, lexical = case
        chain = default_greek_chain()
        state, gold = initial_contextual_state(corpus, lexicon, lexical, chain)
        assert state == initial_state(corpus.sentences, lexicon, lexical,
                                      chain, corpus.tagset)
        assert gold == [[tok.tag for tok in sent]
                        for sent in corpus.sentences]


def fully_checked_features(word, lexicon, max_affix_len) -> set:
    """Every (template, arg) that ``reference_lexical_template_matches``
    accepts for the word, among args up to max_affix_len long: the word's
    characters and the affixes of the word and of every lexicon word."""
    args = set(word)
    for other in (word, *lexicon.entries):
        for k in range(1, max_affix_len + 1):
            args |= {other[:k], other[-k:]}
    return {(template, arg) for template in LEXICAL_TEMPLATES for arg in args
            if (template != "HASCHAR" or len(arg) == 1)
            and reference_lexical_template_matches(template, arg, word,
                                                   lexicon)}


class TestLexicalCandidateFeatures:
    def test_matches_iff_feature_listed(self):
        # the feature list must agree exactly with the reference matcher
        lexicon = Lexicon({
            "γατ": (("NN", 1),), "γατες": (("NN", 1),), "τρεχ": (("VB", 1),),
        })
        # with affixes of every length up to 4 to delete or add
        words = ("γατε", "γατες", "αγατ", "τρεχει", "γατακια", "ακιαγατ",
                 "ατες", "γα")
        features = lexical_candidate_features(words, lexicon, 4)
        for word in words:
            feats = set(features[word])
            assert feats == fully_checked_features(word, lexicon, 4), word

    @given(st.lists(st.text("aβγδ", min_size=1, max_size=7), min_size=1,
                    max_size=8, unique=True),
           st.lists(st.text("aβγδ", min_size=1, max_size=7), max_size=6),
           st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_features_are_the_fully_checked_list(self, entries, words,
                                                 max_affix_len):
        # only DELETEPREF and DELETESUF arguments are checked; the others
        # must match by construction
        lexicon = Lexicon({w: (("NN", 1),) for w in entries})
        for word, feats in candidate_features(words + entries, lexicon,
                                              max_affix_len).items():
            assert len(set(feats)) == len(feats)
            assert set(feats) == fully_checked_features(word, lexicon,
                                                        max_affix_len)
            order = [LEXICAL_TEMPLATES.index(t) for t, _ in feats]
            assert order == sorted(order)


class TestScoreLexicalCandidate:
    LEX = Lexicon({})

    def test_weighted_counts(self):
        states = {
            "αbα": TypeState("NN", "VB", 3),   # fixed by the rule, weight 3
            "βbβ": TypeState("VB", "VB", 1),   # broken by the rule, weight 1
        }
        rule = LexicalRule("HASCHAR", "b", None, "VB")
        # "βbβ" already carries VB, so retagging to VB cannot break it;
        # use a rule moving to NN for the bad side instead
        score = score_lexical_candidate(rule, states, self.LEX)
        assert (score.good, score.bad) == (3, 0)
        # retagging to AT breaks the correct type (weight 1); the type that
        # was already wrong stays wrong and counts toward neither side
        bad_rule = LexicalRule("HASCHAR", "b", None, "AT")
        score = score_lexical_candidate(bad_rule, states, self.LEX)
        assert (score.good, score.bad, score.net) == (0, 1, -1)

    def test_no_match_scores_zero(self):
        states = {"abc": TypeState("NN", "VB", 2)}
        rule = LexicalRule("HASSUF", "xyz", None, "VB")
        assert score_lexical_candidate(rule, states, self.LEX) == RuleScore(0, 0)

    def test_score_equals_error_delta(self):
        # static score must equal the recount after actually applying
        states = {
            "καλη": TypeState("NNM", "NNF", 2),
            "μερη": TypeState("NNF", "NNF", 1),
            "ψαρι": TypeState("NNM", "VRB", 4),
        }
        for rule in (LexicalRule("HASSUF", "η", None, "NNF"),
                     LexicalRule("HASSUF", "η", "NNM", "NNF"),
                     LexicalRule("HASCHAR", "η", None, "VRB")):
            score = score_lexical_candidate(rule, states, self.LEX)
            before = weighted_type_errors(states)
            after = weighted_type_errors(
                apply_lexical_rule_to_states(rule, states, self.LEX))
            assert before - after == score.net, rule


class TestSelectBestRule:
    def test_argmax(self):
        rules = [LexicalRule("HASSUF", "a", None, "NN"),
                 LexicalRule("HASSUF", "b", None, "NN")]
        scores = {rules[0]: RuleScore(3, 0), rules[1]: RuleScore(2, 0)}
        got = select_best_rule(rules, scores.get, 1)
        assert got == (rules[0], RuleScore(3, 0))

    def test_tie_break_lexicographic(self):
        rules = [LexicalRule("HASSUF", "b", None, "NN"),
                 LexicalRule("HASPREF", "a", None, "NN")]
        got = select_best_rule(rules, lambda r: RuleScore(3, 0), 1)
        assert got[0].template == "HASPREF"  # HASPREF < HASSUF

    def test_below_threshold_returns_none(self):
        rules = [LexicalRule("HASSUF", "a", None, "NN")]
        assert select_best_rule(rules, lambda r: RuleScore(1, 0), 2) is None

    def test_empty_candidates(self):
        assert select_best_rule([], lambda r: RuleScore(9, 0), 1) is None


class TestFastSlowEquivalence:
    """The aggregated greedy steps must pick the same rule with the same
    score as direct scoring of every generated candidate."""

    @pytest.mark.parametrize("seed", range(8))
    def test_lexical_step(self, seed):
        corpus = generate_synthetic_corpus(mini_spec(seed))
        config = TrainConfig(score_threshold=1, seed=seed)
        guess, (tags, targets) = lexical_learning_state(corpus, config)
        cache = candidate_features(tags, guess, config.max_affix_len)
        learner = _LexicalLearner(tags, targets, cache,
                                  config.score_threshold)
        states = type_states(tags, targets)
        for _ in range(4):
            fast = rescan_lexical_iteration(tags, targets, cache,
                                            config.score_threshold)
            slow = select_best_rule(
                generate_lexical_candidates(states, guess,
                                            config.max_affix_len),
                lambda r: score_lexical_candidate(r, states, guess),
                config.score_threshold)
            assert learner.best() == fast == slow
            if fast is None:
                break
            # the learner's application routine and the oracle's agree
            learner.apply(fast[0])
            tags = apply_lexical_rules((fast[0],), tags, guess)
            states = apply_lexical_rule_to_states(fast[0], states, guess)
            assert type_states(learner.tags, targets) == \
                type_states(tags, targets) == states

    @pytest.mark.parametrize("seed", range(8))
    def test_contextual_step(self, seed):
        corpus = generate_synthetic_corpus(mini_spec(seed, n_sentences=30))
        state, gold = contextual_learning_state(corpus, seed)
        assert_contextual_steps_agree(state, gold, threshold=1, steps=5)


def contextual_learning_state(corpus, seed):
    """Stage-two inputs of the rule-learning half against a guess lexicon
    from the other half, so that unknown words leave errors to fix."""
    lex_part, rule_part = split_for_unknown_training(corpus, 0.5, seed)
    return initial_contextual_state(rule_part, build_lexicon(lex_part), (),
                                    default_greek_chain())


def assert_contextual_steps_agree(state, gold, threshold, steps):
    """Each step of the incremental learner must pick the same (rule,
    RuleScore) as the full rescan and as direct dynamic scoring of every
    generated candidate, and after each rule it accepts its counts must be
    those of a learner built afresh from the new tags, once the bounds in
    both are scored exactly. Returns the rules accepted."""
    state = [(words, list(tags)) for words, tags in state]
    learner = _ContextualLearner(state, gold, threshold)
    rules = []
    for _ in range(steps):
        got = learner.best()
        assert got == rescan_contextual_iteration(state, gold, threshold)
        assert got == select_best_rule(
            generate_contextual_candidates(state, gold),
            lambda r: dynamic_contextual_score(r, state, gold), threshold)
        if got is None:
            break
        learner.apply(got[0])
        for words, tags in state:
            apply_contextual_rule(got[0], words, tags)
        rules.append(got[0])
        fresh = _ContextualLearner(state, gold, threshold)
        assert contextual_counts(learner, exact_live(learner)) == \
            contextual_counts(fresh, exact_live(fresh))
    return rules


def exact_live(learner, keys=None):
    """The learner's ``live`` with ``keys`` (by default every key that
    holds a bound) scored exactly: a bound goes stale when ``confusion``
    changes, the exact score does not. The learner is left as it was."""
    live, bounded = dict(learner.live), set(learner.bounded)
    for key in bounded if keys is None else keys:
        learner._rescore(key, exact=True)
    exact = learner.live
    learner.live, learner.bounded = live, bounded
    return exact


def contextual_counts(learner, live):
    """The learner's ``correct``, ``fixes`` and ``inter``, and ``live``,
    with keys and tags decoded to names: a learner built from other tags
    may code them otherwise."""
    def key(k):
        return TestCountMatchesTemplateTable._decode(learner, k)
    tag = learner.tag_names.__getitem__
    return ({key(k): n for k, n in learner.correct.items()},
            {key(k): {tag(g): n for g, n in fx.items()}
             for k, fx in learner.fixes.items()},
            {key(k): list(sents) for k, sents in learner.inter.items()},
            {key(k): {tag(to): score for to, score in cands.items()}
             for k, cands in live.items()})


def small_alphabet_sentences(draw_tag, draw_word):
    """Sentences of 1-3 tokens (every window edge) mixed with longer ones,
    as (words, tags, gold) over small alphabets so that sites interact."""
    token = st.tuples(draw_word, draw_tag, draw_tag)
    sentence = st.one_of(st.lists(token, min_size=1, max_size=3),
                         st.lists(token, min_size=4, max_size=9))
    return st.lists(sentence, min_size=1, max_size=10)


class TestIncrementalContextualLearner:
    """The incremental learner against the full rescan it replaces."""

    @pytest.mark.parametrize("threshold", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_corpora(self, seed, threshold):
        corpus = generate_synthetic_corpus(
            mini_spec(seed, n_sentences=40, sentence_len_range=(1, 7)))
        state, gold = contextual_learning_state(corpus, seed)
        assert_contextual_steps_agree(state, gold, threshold, steps=8)

    @pytest.mark.parametrize("seed", range(3))
    def test_short_sentences_only(self, seed):
        corpus = generate_synthetic_corpus(
            mini_spec(seed, n_sentences=60, sentence_len_range=(1, 3)))
        state, gold = contextual_learning_state(corpus, seed)
        assert_contextual_steps_agree(state, gold, threshold=1, steps=8)

    @settings(max_examples=150, deadline=None)
    @given(small_alphabet_sentences(st.sampled_from("ABC"),
                                    st.sampled_from("xyz")),
           st.sampled_from([1, 2]))
    def test_hypothesis_corpora(self, sentences, threshold):
        state = [(tuple(w for w, _, _ in sent), [t for _, t, _ in sent])
                 for sent in sentences]
        gold = [[g for _, _, g in sent] for sent in sentences]
        assert_contextual_steps_agree(state, gold, threshold, steps=6)

    @settings(max_examples=150, deadline=None)
    @given(small_alphabet_sentences(st.sampled_from("ABC"),
                                    st.sampled_from("xyz")),
           st.sampled_from([1, 2]))
    def test_bounds_are_sound(self, sentences, threshold):
        # best() is the exact argmax only if no bound in live is below the
        # exact net of its candidate, and every candidate whose exact net
        # reaches the threshold is in live
        state = [(tuple(w for w, _, _ in sent), [t for _, t, _ in sent])
                 for sent in sentences]
        gold = [[g for _, _, g in sent] for sent in sentences]
        learner = _ContextualLearner(state, gold, threshold)
        for _ in range(6):
            exact = exact_live(learner, list(learner.fixes))
            for key, cands in exact.items():
                for to, (good, bad) in cands.items():
                    bound_good, bound_bad = learner.live[key][to]
                    assert bound_good - bound_bad >= good - bad
            got = learner.best()
            if got is None:
                break
            learner.apply(got[0])

    @settings(max_examples=100, deadline=None)
    @given(small_alphabet_sentences(st.sampled_from("ABC"),
                                    st.sampled_from("xyz")),
           st.sampled_from([1, 2]))
    def test_keys_outside_inter_score_statically(self, sentences,
                                                 threshold):
        # a key outside ``inter`` holds no bound because applying any of
        # its rules moves exactly its static match sites
        state = [(tuple(w for w, _, _ in sent), [t for _, t, _ in sent])
                 for sent in sentences]
        gold = [[g for _, _, g in sent] for sent in sentences]
        learner = _ContextualLearner(state, gold, threshold)
        for _ in range(6):
            for key, fx in learner.fixes.items():
                if key in learner.inter:
                    continue
                template, args, frm = \
                    TestCountMatchesTemplateTable._decode(learner, key)
                bad = learner.correct.get(key, 0)
                for to in learner.tag_names:
                    if to == frm:
                        continue
                    rule = ContextualRule(template, args, frm, to)
                    good = fx.get(learner.tag_id[to], 0)
                    assert dynamic_contextual_score(rule, state, gold) == \
                        RuleScore(good, bad), rule
            got = learner.best()
            if got is None:
                break
            learner.apply(got[0])
            for words, tags in state:
                apply_contextual_rule(got[0], words, tags)

    def test_no_rule_reaches_threshold(self):
        # one error per sentence context: every candidate nets at most 1
        state = [(("a", "b"), ["AT", "NN"]), (("c", "d"), ["VB", "NN"])]
        gold = [["AT", "VB"], ["VB", "AT"]]
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=3)
        assert rules == []
        assert assert_contextual_steps_agree(state, gold, threshold=1,
                                             steps=3)

    def test_cascade_across_the_whole_window(self):
        # after the first rule retags position 0, changing position 1
        # makes position 4 (three to the right) match as well: only the
        # dynamic score of PREV1OR2OR3TAG reaches the threshold
        state = [(("w", "x", "y", "z", "v"), ["X", "B", "C", "C", "B"]),
                 (("p", "x"), ["X", "D"]), (("r", "x"), ["X", "D"])]
        gold = [["A", "A", "C", "C", "A"], ["A", "D"], ["A", "D"]]
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=3)
        assert rules == [
            ContextualRule("NEXTWD", ("x",), "X", "A"),
            ContextualRule("PREV1OR2OR3TAG", ("A",), "B", "A")]

    def test_context_tag_made_by_an_earlier_rule(self):
        # the first rule makes the VB that is the second rule's only
        # context tag, in sentences that held no VB before
        state = [(("o1", "g1", "p1"), ["AT", "NN", "PUNCT"]),
                 (("o2", "g2", "p2"), ["AT", "NN", "PUNCT"]),
                 (("o3", "x3", "p3"), ["AT", "PROP", "PUNCT"]),
                 (("o4", "x4", "p4"), ["AT", "PROP", "PUNCT"])]
        gold = [["AT", "VB", "FW"], ["AT", "VB", "FW"],
                ["AT", "PROP", "PUNCT"], ["AT", "PROP", "PUNCT"]]
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=3)
        assert rules == [
            ContextualRule("NEXT1OR2OR3TAG", ("PUNCT",), "NN", "VB"),
            ContextualRule("PREV1OR2OR3TAG", ("VB",), "PUNCT", "FW")]

    def test_context_is_the_rules_own_to_tag(self):
        # B A A A A: the last A matches only once the A before it is B
        state = [(("a", "b", "c", "d", "e"), ["B", "A", "A", "A", "A"])]
        gold = [["B"] * 5]
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=2)
        assert rules == [ContextualRule("PREV1OR2OR3TAG", ("B",), "A", "B")]

    def test_context_tag_removed_by_an_earlier_rule(self):
        # the first rule takes X out of the sentences ending in v, so the
        # second rule, whose context is X, no longer fires there
        state = [((u, "v"), ["X", "A"]) for u in ("u1", "u2", "u3")] + \
            [((r, w), ["X", "A"]) for r, w in (("r1", "w1"), ("r2", "w2"))]
        gold = [["Y", "A"]] * 3 + [["X", "B"]] * 2
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=3)
        assert rules == [
            ContextualRule("NEXTWD", ("v",), "X", "Y"),
            ContextualRule("PREV1OR2OR3TAG", ("X",), "A", "B")]

    def test_cascade_outside_the_window_of_a_change(self):
        # the first rule moves position 6 of the long sentence, which
        # ends the chain of matches that the B at position 0 starts at
        # position 1, outside that move's window: the second rule's key
        # is near only there, and must still be re-simulated and rescored
        words = ("a", "b", "c", "d", "e", "z", "f", "g", "h", "i")
        state = [(words, ["B"] + ["A"] * 9), (("z", "y"), ["D", "A"]),
                 (("z", "x"), ["D", "A"])]
        gold = [["B"] * 5 + ["A", "C", "A", "A", "A"], ["D", "C"],
                ["D", "C"]]
        rules = assert_contextual_steps_agree(state, gold, threshold=2,
                                              steps=3)
        assert rules == [
            ContextualRule("PREVWD", ("z",), "A", "C"),
            ContextualRule("SURROUNDTAG", ("B", "A"), "A", "B")]

    @pytest.mark.parametrize("cap", [0, 1, 3])
    @pytest.mark.parametrize("threshold", [1, 2])
    def test_rule_cap_keeps_the_greedy_prefix(self, cap, threshold):
        corpus = generate_synthetic_corpus(mini_spec(4, n_sentences=80))
        lexicon, lexical = learn_lexical_rules(corpus, config=TrainConfig(
            score_threshold=threshold))
        unlimited = learn_contextual_rules(
            corpus, lexicon, lexical,
            config=TrainConfig(score_threshold=threshold))
        assert len(unlimited) > 3
        capped = learn_contextual_rules(
            corpus, lexicon, lexical,
            config=TrainConfig(score_threshold=threshold,
                               max_rules_per_phase=cap))
        assert capped == unlimited[:cap]


def decoded_tables(learner):
    """The lexical learner's ``fixes``, ``correct`` and ``live`` with each
    key decoded to (template, arg, from_tag) and each slot to its tag."""
    def decode(table):
        return {learner._decode(key): {learner.tag_names[slot]: value
                                       for slot, value in by_slot.items()}
                for key, by_slot in table.items()}
    return decode(learner.fixes), decode(learner.correct), decode(learner.live)


def assert_lexical_steps_agree(tags, targets, features, guess, threshold,
                               steps):
    """Each step of the incremental lexical learner must pick the same
    (rule, RuleScore) as the full rescan, and leave the tag map that
    ``apply_lexical_rules`` gives over every type and the tables a fresh
    learner counts from it: no zero count, empty key or stale ``live``
    entry. Returns the rules accepted."""
    learner = _LexicalLearner(tags, targets, features, threshold)
    rules = []
    for _ in range(steps):
        got = learner.best()
        assert got == rescan_lexical_iteration(tags, targets, features,
                                               threshold)
        if got is None:
            break
        learner.apply(got[0])
        tags = apply_lexical_rules((got[0],), tags, guess)
        assert learner.tags == tags
        fresh = _LexicalLearner(tags, targets, features, threshold)
        assert decoded_tables(learner) == decoded_tables(fresh)
        rules.append(got[0])
    return rules


class TestIncrementalLexicalLearner:
    """The incremental lexical learner against the full rescan it
    replaces."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text("abc", min_size=1, max_size=4),
                           st.tuples(st.sampled_from(["A", "AB", "B", "BA"]),
                                     st.sampled_from(["A", "AB", "B", "BA"]),
                                     st.integers(1, 3)),
                           min_size=1, max_size=12),
           st.lists(st.text("abc", min_size=1, max_size=5), max_size=6))
    def test_keys_decode_and_sort_like_the_rules(self, types, known):
        guess = Lexicon({w: (("A", 1),) for w in known})
        types = {w: v for w, v in types.items() if w not in guess}
        tags = {w: tag for w, (tag, _, _) in types.items()}
        targets = {w: (gold, count) for w, (_, gold, count) in types.items()}
        features = candidate_features(tags, guess, 3)
        learner = _LexicalLearner(tags, targets, features, 1)
        keys = sorted(set(learner.fixes) | set(learner.correct))
        decoded = [learner._decode(key) for key in keys]
        # every key a type matches, each under a key of its own
        assert len(set(decoded)) == len(keys)
        assert set(decoded) == {(template, arg, frm)
                                for w, feats in features.items()
                                for template, arg in feats
                                for frm in (None, tags[w])}
        assert decoded == sorted(decoded, key=lambda r: (r[0], r[1],
                                                         r[2] or ""))

    def test_counts_equal_a_fresh_count_after_every_step(self):
        wrong_to_wrong = 0
        for seed in range(3):
            corpus = generate_synthetic_corpus(mini_spec(
                seed, n_sentences=60, suffix_paradigms=OVERLAPPING_SUFFIXES))
            config = TrainConfig(score_threshold=1, seed=seed)
            guess, (tags, targets) = lexical_learning_state(corpus, config)
            features = candidate_features(tags, guess, config.max_affix_len)
            learner = _LexicalLearner(tags, targets, features, 1)
            while (best := learner.best()) is not None:
                before = dict(learner.tags)
                learner.apply(best[0])
                wrong_to_wrong += sum(
                    before[w] != tag and targets[w][0] not in (before[w], tag)
                    for w, tag in learner.tags.items())
                fresh = _LexicalLearner(learner.tags, targets, features, 1)
                assert decoded_tables(learner) == decoded_tables(fresh)
        # a retag between two wrong tags leaves the unconditioned keys be
        assert wrong_to_wrong

    def test_apply_writes_each_key_once_per_step_group(self, monkeypatch):
        # a step sums the count moves of the types it retags before writing
        # them, so it writes fewer keys than one write per type and key
        # would: 2 per key of a retagged type, 4 when it turns correct or
        # wrong
        ceilings = {0: 1044, 1: 1336, 2: 1148}
        for seed, ceiling in ceilings.items():
            corpus = generate_synthetic_corpus(mini_spec(
                seed, n_sentences=60, suffix_paradigms=OVERLAPPING_SUFFIXES))
            config = TrainConfig(score_threshold=1, seed=seed)
            guess, (tags, targets) = lexical_learning_state(corpus, config)
            features = candidate_features(tags, guess, config.max_affix_len)
            learner = _LexicalLearner(tags, targets, features, 1)
            writes = []
            add = learner_module._add
            monkeypatch.setattr(
                learner_module, "_add",
                lambda table, gold, deltas: (writes.append(len(deltas)),
                                             add(table, gold, deltas)))
            per_type = 0
            while (best := learner.best()) is not None:
                before = dict(learner.tags)
                learner.apply(best[0])
                for w, tag in learner.tags.items():
                    if tag != before[w]:
                        gold = targets[w][0]
                        turns = (before[w] == gold) != (tag == gold)
                        per_type += 2 * len(features[w]) * (1 + turns)
            monkeypatch.undo()
            assert sum(writes) < per_type, seed
            assert sum(writes) <= ceiling, seed

    @pytest.mark.parametrize("threshold", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_corpora(self, seed, threshold):
        corpus = generate_synthetic_corpus(mini_spec(
            seed, n_sentences=60, suffix_paradigms=OVERLAPPING_SUFFIXES))
        config = TrainConfig(score_threshold=threshold, seed=seed)
        guess, (tags, targets) = lexical_learning_state(corpus, config)
        features = candidate_features(tags, guess, config.max_affix_len)
        rules = assert_lexical_steps_agree(tags, targets, features, guess,
                                           threshold, steps=200)
        assert 0 < len(rules) < 200
        _, learned = learn_lexical_rules(corpus, config=config)
        assert learned == tuple(rules)

    def test_retags_from_its_own_index(self, monkeypatch):
        # a step retags the types its feature index holds: learning builds
        # no rule index of the tagger's, and learns the same rules
        corpora = [generate_synthetic_corpus(mini_spec(
            seed, n_sentences=60, suffix_paradigms=OVERLAPPING_SUFFIXES))
            for seed in range(3)]
        configs = [TrainConfig(score_threshold=1, seed=seed)
                   for seed in range(3)]
        expected = [learn_lexical_rules(corpus, config=config)
                    for corpus, config in zip(corpora, configs)]
        assert all(rules for _, rules in expected)

        def refuse(*args):
            raise AssertionError("lexical learning built a LexicalRuleIndex")

        monkeypatch.setattr(rules_module, "LexicalRuleIndex", refuse)
        for corpus, config, learned in zip(corpora, configs, expected):
            assert learn_lexical_rules(corpus, config=config) == learned

    @pytest.mark.parametrize("cap", [0, 1, 3])
    @pytest.mark.parametrize("threshold", [1, 2])
    def test_rule_cap_keeps_the_greedy_prefix(self, cap, threshold):
        corpus = generate_synthetic_corpus(mini_spec(
            4, n_sentences=80, suffix_paradigms=OVERLAPPING_SUFFIXES))
        config = TrainConfig(score_threshold=threshold)
        lexicon, unlimited = learn_lexical_rules(corpus, config=config)
        assert len(unlimited) > 3
        capped_lexicon, capped = learn_lexical_rules(
            corpus, config=TrainConfig(score_threshold=threshold,
                                       max_rules_per_phase=cap))
        assert capped == unlimited[:cap]
        assert capped_lexicon == lexicon

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text("abc", min_size=1, max_size=4),
                           st.tuples(st.sampled_from("ABC"),
                                     st.sampled_from("ABC"),
                                     st.integers(1, 3)),
                           min_size=1, max_size=25),
           st.lists(st.text("abc", min_size=1, max_size=5), max_size=10),
           st.sampled_from([1, 2]), st.sampled_from([1, 2, 3]))
    def test_hypothesis_corpora(self, types, known, threshold, max_affix_len):
        # (tag, gold, count) per type over small alphabets, so that types
        # share affixes and the known words give DELETE/ADD matches
        guess = Lexicon({w: (("A", 1),) for w in known})
        types = {w: v for w, v in types.items() if w not in guess}
        tags = {w: tag for w, (tag, _, _) in types.items()}
        targets = {w: (gold, count) for w, (_, gold, count) in types.items()}
        features = candidate_features(tags, guess, max_affix_len)
        assert_lexical_steps_agree(tags, targets, features, guess, threshold,
                                   steps=40)

    def test_unconditioned_rule_over_types_already_at_its_to_tag(self):
        # "za" matches HASCHAR a and already holds A: the unconditioned rule
        # to A fixes "xa" and "ya" and leaves "za" correct, so it beats
        # each conditioned one (one fix apiece)
        tags = {"xa": "B", "ya": "C", "za": "A", "wb": "C"}
        targets = {"xa": ("A", 1), "ya": ("A", 1), "za": ("A", 2),
                   "wb": ("C", 1)}
        guess = Lexicon({})
        features = candidate_features(tags, guess, 4)
        learner = _LexicalLearner(tags, targets, features, 2)
        assert learner.best() == (LexicalRule("HASCHAR", "a", None, "A"),
                                  RuleScore(2, 0))
        rules = assert_lexical_steps_agree(tags, targets, features, guess,
                                           threshold=2, steps=5)
        assert rules == [LexicalRule("HASCHAR", "a", None, "A")]

    def test_no_rule_reaches_threshold(self):
        # one token in error per feature: every candidate nets at most 1
        tags = {"ab": "B", "cd": "A"}
        targets = {"ab": ("A", 1), "cd": ("B", 1)}
        guess = Lexicon({})
        features = candidate_features(tags, guess, 4)
        assert assert_lexical_steps_agree(tags, targets, features, guess,
                                          threshold=2, steps=3) == []
        assert assert_lexical_steps_agree(tags, targets, features, guess,
                                          threshold=1, steps=3)


class TestCountMatchesTemplateTable:
    """``_ContextualLearner._spell``, ``_left`` and ``_right`` write the
    keys out per template for speed; the keys they emit must be exactly
    the instantiations the template table gives, at every position and
    every distance from the sentence edges."""

    @staticmethod
    def _decode(learner, key):
        template, args, frm = learner._decode(key)
        names = (learner.word_names if template in WORD_TEMPLATES
                 else learner.tag_names)
        return (template, tuple(names[a] for a in args),
                learner.tag_names[frm])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("ABC")),
                    min_size=1, max_size=9))
    def test_keys_at_every_position(self, tokens):
        words = tuple(w for w, _ in tokens)
        tags = [t for _, t in tokens]
        for p in range(len(tags)):
            # the only error site is p, with a gold tag no other token has,
            # so the keys counted under that gold tag are exactly p's keys
            gold = list(tags)
            gold[p] = "Z"
            learner = _ContextualLearner([(words, tags)], [gold], 1)
            z = learner.tag_id["Z"]
            emitted = [key for key, fx in learner.fixes.items() if z in fx]
            assert all(learner.fixes[key][z] == 1 for key in emitted)
            assert {self._decode(learner, key) for key in emitted} == {
                (template, args, tags[p]) for template, args
                in context_instantiations(words, tags, p)}

        # a site with another token of its tag d to the right marks as near
        # the keys of the tag templates that read offset -d, and no others
        learner = _ContextualLearner([(words, tags)], [list(tags)], 1)
        near = set()
        for p in range(len(tags)):
            for d in range(1, CONTEXT_WINDOW + 1):
                if p + d >= len(tags) or tags[p + d] != tags[p]:
                    continue
                near |= {(template, args, tags[p]) for template, args
                         in context_instantiations(words, tags, p)
                         if CONTEXT_TABLE[template][0] == TAGS
                         and any(-d in offsets for offsets
                                 in CONTEXT_TABLE[template][1])}
        assert {self._decode(learner, key) for key in learner.inter} == near


class TestContextualScoring:
    def test_static_equals_dynamic_when_sites_do_not_interact(self):
        # one match site per sentence: no cascade is possible
        state = [(("το", "καν"), ["DET", "NN"]),
                 (("το", "ψαρ"), ["DET", "NN"]),
                 (("ο", "καν"), ["AT", "NN"])]
        gold = [["DET", "VB"], ["DET", "VB"], ["AT", "NN"]]
        rule = ContextualRule("PREVTAG", ("DET",), "NN", "VB")
        assert score_contextual_candidate(rule, state, gold) == \
            dynamic_contextual_score(rule, state, gold) == RuleScore(2, 0)

    def test_dynamic_sees_the_cascade_static_does_not(self):
        state = [(("x", "y", "z"), ["A", "B", "B"])]
        gold = [["A", "A", "A"]]
        rule = ContextualRule("PREVTAG", ("A",), "B", "A")
        assert score_contextual_candidate(rule, state, gold) == RuleScore(1, 0)
        assert dynamic_contextual_score(rule, state, gold) == RuleScore(2, 0)

    def test_dynamic_equals_true_error_delta(self):
        for seed in range(6):
            corpus = generate_synthetic_corpus(mini_spec(seed))
            lex_part, rule_part = split_for_unknown_training(corpus, 0.5, seed)
            guess = build_lexicon(lex_part)
            state, gold = initial_contextual_state(rule_part, guess, (),
                                                   default_greek_chain())
            for rule in generate_contextual_candidates(state, gold):
                score = dynamic_contextual_score(rule, state, gold)
                copied = [(w, list(t)) for w, t in state]
                for words, tags in copied:
                    apply_contextual_rule(rule, words, tags)
                delta = token_errors(state, gold) - token_errors(copied, gold)
                assert delta == score.net, rule

    def test_absent_from_tag_scores_zero(self):
        state = [(("a", "b"), ["NN", "VB"])]
        gold = [["NN", "VB"]]
        rule = ContextualRule("PREVTAG", ("NN",), "AT", "VB")
        assert dynamic_contextual_score(rule, state, gold) == RuleScore(0, 0)


class TestLearnLexicalRules:
    def test_no_errors_learns_nothing(self):
        # every unknown type is lowercase Greek tagged with the fall-through
        # role tag, so the initial guess is already right
        ts = make_tagset()
        words = ["λεξη%d" % i for i in range(20)]
        sents = tuple((Token(w, "NNF"), Token(words[(i + 1) % 20], "NNF"))
                      for i, w in enumerate(words))
        corpus = TaggedCorpus(sents, ts)
        lexicon, rules = learn_lexical_rules(corpus, config=TrainConfig())
        assert rules == ()
        assert lexicon == build_lexicon(corpus)

    def test_suffix_language_is_learned(self):
        # tags fully determined by suffix: held-out unknown words must be
        # tagged correctly by the learned rules
        corpus = generate_synthetic_corpus(
            mini_spec(3, n_stems=20, n_sentences=120, ambiguity_rate=0.0))
        config = TrainConfig(score_threshold=2, seed=1)
        lexicon, rules = learn_lexical_rules(corpus, config=config)
        assert rules
        chain = default_greek_chain()
        from tbltagger.lexicon import initial_tag
        held_out = ("ζζζος", "ζζζη", "ζζζει")
        assert all(w not in lexicon for w in held_out)
        unknown = {w: initial_tag(w, lexicon, chain, corpus.tagset)
                   for w in held_out}
        unknown = apply_lexical_rules(rules, unknown, lexicon)
        assert unknown == {"ζζζος": "NNM", "ζζζη": "NNF", "ζζζει": "VRB"}

    def test_each_rule_reduces_errors_by_threshold(self):
        corpus = generate_synthetic_corpus(mini_spec(5, n_sentences=60))
        config = TrainConfig(score_threshold=2, seed=2)
        _, rules = learn_lexical_rules(corpus, config=config)
        guess, unknown = lexical_learning_state(corpus, config)
        states = type_states(*unknown)
        errors = weighted_type_errors(states)
        for rule in rules:
            states = apply_lexical_rule_to_states(rule, states, guess)
            after = weighted_type_errors(states)
            assert errors - after >= config.score_threshold
            errors = after

    def test_fewer_errors_than_threshold_builds_no_learner(self, monkeypatch):
        # Each sentence holds two words of its own, so every word of the
        # rule-learning half is unknown to the guess lexicon. The "ω" words
        # are VB against the NNF that lower-case Greek starts with: one
        # error each, all fixed by one rule on the prefix "ω".
        corpus = TaggedCorpus(tuple(
            (Token("λ%d" % i, "NNF"), Token("ω%d" % i, "VB"))
            for i in range(6)), make_tagset())
        _, (tags, targets) = lexical_learning_state(corpus, TrainConfig())
        errors = sum(count for word, (gold, count) in targets.items()
                     if tags[word] != gold)
        assert errors == 3
        _, rules = learn_lexical_rules(
            corpus, config=TrainConfig(score_threshold=errors))
        assert len(rules) == 1

        def refuse(*args):
            raise AssertionError("learner built")
        monkeypatch.setattr(_LexicalLearner, "__init__", refuse)
        lexicon, rules = learn_lexical_rules(
            corpus, config=TrainConfig(score_threshold=errors + 1))
        assert rules == ()
        assert lexicon == build_lexicon(corpus)


class TestLearnContextualRules:
    def test_zero_errors_learns_nothing(self):
        ts = make_tagset()
        corpus = TaggedCorpus(((Token("a", "AT"), Token("b", "NN")),
                               (Token("a", "AT"), Token("c", "VB"))), ts)
        rules = learn_contextual_rules(corpus, build_lexicon(corpus), (),
                                       config=TrainConfig())
        assert rules == ()

    def test_empty_corpus_learns_nothing(self):
        # the one refusal of an untrainable corpus is the split, which
        # contextual learning does not make
        corpus = TaggedCorpus((), make_tagset())
        assert learn_contextual_rules(corpus, Lexicon({}), ()) == ()

    @pytest.mark.parametrize("last_tag, threshold", [("NN", 1), ("VB", 2)])
    def test_fewer_errors_than_threshold_builds_no_learner(
            self, monkeypatch, last_tag, threshold):
        # "b" is tagged NN twice, so it starts as NN: with a last b/NN
        # every starting tag is correct, with b/VB one is wrong
        def refuse(*args):
            raise AssertionError("contextual learner built")
        monkeypatch.setattr("tbltagger.learner._ContextualLearner", refuse)
        ts = make_tagset()
        corpus = TaggedCorpus(
            ((Token("a", "AT"), Token("b", "NN")),
             (Token("c", "VB"), Token("b", "NN")),
             (Token("a", "AT"), Token("b", last_tag))), ts)
        rules = learn_contextual_rules(
            corpus, build_lexicon(corpus), (),
            config=TrainConfig(score_threshold=threshold))
        assert rules == ()

    def test_determiner_context_is_learned(self):
        ts = make_tagset(tags=("DET", "AT", "NN", "VB", "FW", "PROP", "NNF"),
                         roles={"FOREIGN": "FW", "PROPER_MASC_SG": "PROP",
                                "NOUN_FEM_SG": "NNF"})
        sents = [(Token("το", "DET"), Token("καν", "VB"))] * 8
        sents += [(Token("ο", "AT"), Token("καν", "NN"))] * 10
        corpus = TaggedCorpus(tuple(sents), ts)
        lexicon = build_lexicon(corpus)
        rules = learn_contextual_rules(corpus, lexicon, (),
                                       config=TrainConfig(seed=4))
        assert rules
        first = rules[0]
        assert (first.args, first.from_tag, first.to_tag) == \
            (("DET",), "NN", "VB")
        # all errors fixed by that single rule
        state, gold = initial_contextual_state(corpus, lexicon, (),
                                               default_greek_chain())
        for words, tags in state:
            apply_contextual_rule(first, words, tags)
        assert token_errors(state, gold) == 0

    def test_error_count_strictly_decreases(self):
        corpus = generate_synthetic_corpus(mini_spec(6, n_sentences=80))
        config = TrainConfig(score_threshold=2, seed=3)
        lexicon, lexical = learn_lexical_rules(corpus, config=config)
        rules = learn_contextual_rules(corpus, lexicon, lexical, config=config)
        state, gold = initial_contextual_state(corpus, lexicon, lexical,
                                               default_greek_chain())
        errors = token_errors(state, gold)
        for rule in rules:
            score = dynamic_contextual_score(rule, state, gold)
            for words, tags in state:
                apply_contextual_rule(rule, words, tags)
            after = token_errors(state, gold)
            assert errors - after == score.net
            assert score.net >= config.score_threshold
            errors = after


class TestNonConvergence:
    """Every accepted rule nets at least the threshold, so the initial
    error count bounds the number of rules. If applying a rule left the
    counts unchanged, learning must fail within that bound, not loop."""

    @staticmethod
    def _no_op_apply(steps, bound):
        def apply(self, rule):
            steps.append(rule)
            if len(steps) > bound:
                raise AssertionError("learning did not stop")
        return apply

    def test_lexical_learning_fails(self, monkeypatch):
        corpus = generate_synthetic_corpus(mini_spec(5, n_sentences=60))
        config = TrainConfig(score_threshold=1, seed=2)
        _, (tags, targets) = lexical_learning_state(corpus, config)
        initial_errors = sum(count for word, (gold, count) in targets.items()
                             if tags[word] != gold)
        steps = []
        monkeypatch.setattr(_LexicalLearner, "apply",
                            self._no_op_apply(steps, initial_errors + 1))
        with pytest.raises(RuntimeError, match="LexicalRule"):
            learn_lexical_rules(corpus, config=config)
        assert 0 < len(steps) <= initial_errors

    def test_contextual_learning_fails(self, monkeypatch):
        corpus = generate_synthetic_corpus(mini_spec(6, n_sentences=80))
        config = TrainConfig(score_threshold=1, seed=3)
        lexicon, lexical = learn_lexical_rules(corpus, config=config)
        state, gold = initial_contextual_state(corpus, lexicon, lexical,
                                               default_greek_chain())
        initial_errors = token_errors(state, gold)
        steps = []
        monkeypatch.setattr(_ContextualLearner, "apply",
                            self._no_op_apply(steps, initial_errors + 1))
        with pytest.raises(RuntimeError, match="ContextualRule"):
            learn_contextual_rules(corpus, lexicon, lexical, config=config)
        assert 0 < len(steps) <= initial_errors


class TestTrainModel:
    @pytest.mark.parametrize("train", [train_model, learn_lexical_rules],
                             ids=["train_model", "learn_lexical_rules"])
    def test_empty_corpus_refused(self, train):
        with pytest.raises(TaggerError) as exc:
            train(TaggedCorpus((), make_tagset()))
        assert str(exc.value) == "cannot train on an empty corpus"

    def test_deterministic(self):
        corpus = generate_synthetic_corpus(mini_spec(9, n_sentences=60))
        config = TrainConfig(seed=11)
        a = train_model(corpus, config=config)
        b = train_model(corpus, config=config)
        assert serialize_rules(a.lexical_rules, a.contextual_rules) == \
            serialize_rules(b.lexical_rules, b.contextual_rules)
        assert a.lexicon == b.lexicon

    def test_zero_rule_cap_gives_baseline_model(self):
        corpus = generate_synthetic_corpus(mini_spec(2, n_sentences=40))
        model = train_model(corpus, config=TrainConfig(max_rules_per_phase=0))
        assert model.lexical_rules == ()
        assert model.contextual_rules == ()
        assert model.lexicon == build_lexicon(corpus)

    def test_zero_rule_cap_builds_no_learner(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("learner built")
        monkeypatch.setattr("tbltagger.learner._LexicalLearner", refuse)
        monkeypatch.setattr("tbltagger.learner._ContextualLearner", refuse)
        corpus = generate_synthetic_corpus(mini_spec(2, n_sentences=40))
        model, errors = train_model_and_errors(
            corpus, TrainConfig(max_rules_per_phase=0))
        assert model.lexical_rules == model.contextual_rules == ()
        state, gold = initial_contextual_state(corpus, model.lexicon, (),
                                               default_greek_chain())
        assert errors == token_errors(state, gold) > 0
        # the split still refuses a corpus it cannot split
        with pytest.raises(TaggerError, match="at least 2 sentences"):
            learn_lexical_rules(select_sentences(corpus, [0]),
                                config=TrainConfig(max_rules_per_phase=0))

    def test_training_log_lines(self, caplog):
        corpus = generate_synthetic_corpus(mini_spec(6, n_sentences=80))
        with caplog.at_level(logging.INFO, logger="tbltagger.learner"):
            train_model(corpus, config=TrainConfig(seed=3))
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith(("lexical ", "contextual ")) for m in messages)
        for m in messages:
            assert "net=" in m
            assert "errors_remaining=" in m


    def test_logged_errors_remaining_match_a_recount(self, caplog):
        # overlapping suffixes and a weak context rule: some accepted rules
        # of both stages also break correct tags
        corpus = generate_synthetic_corpus(mini_spec(
            4, n_sentences=80, context_rule_strength=0.7,
            suffix_paradigms=(("ος", "NNM"), ("ιος", "ADJ"), ("η", "NNF"),
                              ("ει", "VRB"), ("α", "NFP"), ("μα", "NNT"))))
        config = TrainConfig(seed=3)
        with caplog.at_level(logging.INFO, logger="tbltagger.learner"):
            model = train_model(corpus, config=config)
        logged = {"lexical": [], "contextual": []}
        for record in caplog.records:
            m = re.match(r"(lexical|contextual) \d+ .* errors_remaining=(\d+)$",
                         record.getMessage())
            if m:
                logged[m.group(1)].append(int(m.group(2)))
        assert len(logged["lexical"]) == len(model.lexical_rules) > 0
        assert len(logged["contextual"]) == len(model.contextual_rules) > 0

        guess, unknown = lexical_learning_state(corpus, config)
        states = type_states(*unknown)
        recount = []
        for rule in model.lexical_rules:
            states = apply_lexical_rule_to_states(rule, states, guess)
            recount.append(weighted_type_errors(states))
        assert logged["lexical"] == recount

        state, gold = initial_contextual_state(
            corpus, model.lexicon, model.lexical_rules, default_greek_chain())
        recount = []
        for rule in model.contextual_rules:
            for words, tags in state:
                apply_contextual_rule(rule, words, tags)
            recount.append(token_errors(state, gold))
        assert logged["contextual"] == recount

    def test_debug_record_per_contextual_step(self, caplog, monkeypatch):
        # each best() logs the keys it scored exactly and how many of them
        # kept a candidate at the threshold
        scored = []
        rescore = _ContextualLearner._rescore

        def counting(self, key, exact=False):
            rescore(self, key, exact)
            if exact:
                scored.append(key in self.live)
        monkeypatch.setattr(_ContextualLearner, "_rescore", counting)
        corpus = generate_synthetic_corpus(mini_spec(
            3, n_sentences=80, context_rule_strength=0.7,
            suffix_paradigms=OVERLAPPING_SUFFIXES))
        with caplog.at_level(logging.DEBUG, logger="tbltagger.learner"):
            model = train_model(corpus, config=TrainConfig(seed=3))
        steps = []
        for record in caplog.records:
            m = re.fullmatch(r"contextual exact_scored=(\d+) kept=(\d+)",
                             record.getMessage())
            if m:
                assert record.levelno == logging.DEBUG
                steps.append((int(m.group(1)), int(m.group(2))))
        # one step per accepted rule and the last, which finds none
        assert len(steps) == len(model.contextual_rules) + 1
        assert sum(n for n, _ in steps) == len(scored)
        assert 0 < sum(k for _, k in steps) == sum(scored) < len(scored)
        assert all(k <= n for n, k in steps)


class TestRuleCountGrowth:
    def test_rule_counts_grow_with_corpus_size(self, big_synth_corpus):
        # nested prefixes: total learned rules should rise with corpus size
        # in at least 80% of adjacent size pairs
        sizes = [1000, 2000, 4000, 8000, 16000, 24000]
        totals = []
        for size in sizes:
            sub = truncate_to_words(big_synth_corpus, size)
            model = train_model(sub)
            totals.append(len(model.lexical_rules) + len(model.contextual_rules))
        pairs = list(zip(totals, totals[1:]))
        ok = sum(1 for a, b in pairs if b >= a)
        assert ok >= 0.8 * len(pairs), totals
        assert totals[-1] > 0
