"""Rule matching/application semantics, tagging pipeline, persistence."""

import os
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from tbltagger.corpus import (REQUIRED_ROLES, TaggedCorpus, TaggerError,
                              Tagset, TagsetError, Token)
from tbltagger.lexicon import (ALWAYS, STARTS_GREEK_CAPITAL, STARTS_LATIN,
                               InitialRuleChain, Lexicon, build_lexicon,
                               default_greek_chain, initial_tag,
                               parse_lexicon, serialize_lexicon)
from tbltagger.learner import initial_contextual_state
from tbltagger import rules as rules_module
from tbltagger.rules import (CONTEXT_TABLE, CONTEXTUAL_TEMPLATES,
                             LEXICAL_TEMPLATES, MODEL_FILES, WORDS,
                             ContextualRule, LexicalRule,
                             LexicalRuleIndex, ModelError, TaggerModel,
                             apply_contextual_rule, apply_contextual_rules,
                             apply_lexical_rules, lexical_template_matches,
                             load_model, parse_rules, rewrite_sentence,
                             save_model, serialize_rules, tag_corpus)
from tbltagger.corpus import serialize_tagged_corpus

from conftest import TAG_NAMES, corpora_st, make_tagset, words_st
from oracles import (contextual_rule_matches, lexical_rule_matches,
                     reference_apply_contextual_rules,
                     reference_apply_lexical_rules, reference_tag_corpus)


EMPTY_LEX = Lexicon({})


class TestLexicalRuleValidation:
    def test_unknown_template(self):
        with pytest.raises(TaggerError):
            LexicalRule("NOSUCH", "a", None, "NN")

    def test_haschar_needs_single_char(self):
        with pytest.raises(TaggerError):
            LexicalRule("HASCHAR", "ab", None, "NN")

    def test_from_equals_to_rejected(self):
        with pytest.raises(TaggerError):
            LexicalRule("HASSUF", "a", "NN", "NN")

    def test_empty_arg_rejected(self):
        with pytest.raises(TaggerError):
            LexicalRule("HASSUF", "", None, "NN")


class TestLexicalRuleMatches:
    def test_hassuf(self):
        rule = LexicalRule("HASSUF", "ed", None, "VB")
        assert lexical_rule_matches(rule, "walked", "NN", EMPTY_LEX)
        assert not lexical_rule_matches(rule, "walk", "NN", EMPTY_LEX)

    def test_hassuf_greek_mismatch(self):
        rule = LexicalRule("HASSUF", "ης", None, "NN")
        assert not lexical_rule_matches(rule, "μάνατζερ", "FW", EMPTY_LEX)

    def test_from_tag_condition(self):
        rule = LexicalRule("HASSUF", "ed", "NN", "VB")
        assert lexical_rule_matches(rule, "walked", "NN", EMPTY_LEX)
        assert not lexical_rule_matches(rule, "walked", "AT", EMPTY_LEX)

    def test_deletesuf_requires_lexicon_member(self):
        rule = LexicalRule("DELETESUF", "s", None, "NN")
        with_cat = Lexicon({"cat": (("NN", 1),)})
        assert lexical_rule_matches(rule, "cats", "FW", with_cat)
        assert not lexical_rule_matches(rule, "cats", "FW", EMPTY_LEX)

    def test_deletesuf_never_empties_word(self):
        rule = LexicalRule("DELETESUF", "s", None, "NN")
        assert not lexical_rule_matches(rule, "s", "FW",
                                        Lexicon({"": (("NN", 1),)}))

    def test_deletepref(self):
        rule = LexicalRule("DELETEPREF", "un", None, "VB")
        lex = Lexicon({"do": (("VB", 1),)})
        assert lexical_rule_matches(rule, "undo", "NN", lex)
        assert not lexical_rule_matches(rule, "redo", "NN", lex)

    def test_addsuf_addpref(self):
        lex = Lexicon({"walked": (("VB", 1),)})
        assert lexical_rule_matches(LexicalRule("ADDSUF", "ed", None, "VB"),
                                    "walk", "NN", lex)
        assert lexical_rule_matches(LexicalRule("ADDPREF", "wal", None, "VB"),
                                    "ked", "NN", lex)
        assert not lexical_rule_matches(LexicalRule("ADDSUF", "s", None, "VB"),
                                        "walk", "NN", lex)

    def test_haschar(self):
        rule = LexicalRule("HASCHAR", "ω", None, "VB")
        assert lexical_rule_matches(rule, "τρέχω", "NN", EMPTY_LEX)
        assert not lexical_rule_matches(rule, "γάτα", "NN", EMPTY_LEX)


class TestApplyLexicalRules:
    def test_empty_rule_list(self):
        got = apply_lexical_rules((), {"walked": "NN"}, EMPTY_LEX)
        assert got == {"walked": "NN"}

    def test_single_rule(self):
        rules = (LexicalRule("HASSUF", "ed", None, "VB"),)
        got = apply_lexical_rules(rules, {"walked": "NN"}, EMPTY_LEX)
        assert got == {"walked": "VB"}

    def test_from_tag_condition(self):
        rules = (LexicalRule("HASSUF", "ed", "NN", "VB"),)
        got = apply_lexical_rules(rules, {"walked": "NN", "jumped": "AT"},
                                  EMPTY_LEX)
        assert got == {"walked": "VB", "jumped": "AT"}

    def test_order_sensitivity(self):
        # B conditions on A's output tag, so B fires only after A.
        a = LexicalRule("HASSUF", "ed", "NN", "VB")
        b = LexicalRule("HASPREF", "w", "VB", "AT")
        assert apply_lexical_rules((a, b), {"walked": "NN"},
                                   EMPTY_LEX) == {"walked": "AT"}
        assert apply_lexical_rules((b, a), {"walked": "NN"},
                                   EMPTY_LEX) == {"walked": "VB"}

    def test_does_not_mutate_input(self):
        assignments = {"walked": "NN"}
        apply_lexical_rules((LexicalRule("HASSUF", "ed", None, "VB"),),
                            assignments, EMPTY_LEX)
        assert assignments == {"walked": "NN"}


class TestContextualRuleValidation:
    def test_arity_checked(self):
        with pytest.raises(TaggerError):
            ContextualRule("PREVTAG", ("A", "B"), "NN", "VB")
        with pytest.raises(TaggerError):
            ContextualRule("SURROUNDTAG", ("A",), "NN", "VB")

    def test_from_equals_to_rejected(self):
        with pytest.raises(TaggerError):
            ContextualRule("PREVTAG", ("A",), "NN", "NN")

    def test_unknown_template(self):
        with pytest.raises(TaggerError):
            ContextualRule("NOSUCH", ("A",), "NN", "VB")


class TestContextualRuleMatches:
    WORDS = ("the", "run", "fast")
    TAGS = ["AT", "VB", "NN"]

    def _match(self, rule, pos, words=WORDS, tags=None):
        return contextual_rule_matches(rule, words, tags or list(self.TAGS), pos)

    def test_prevtag(self):
        assert self._match(ContextualRule("PREVTAG", ("AT",), "VB", "NN"), 1)
        assert not self._match(ContextualRule("PREVTAG", ("AT",), "AT", "NN"), 0)

    def test_from_tag_must_match(self):
        assert not self._match(ContextualRule("PREVTAG", ("AT",), "NN", "VB"), 1)

    def test_surroundtag_at_boundary(self):
        rule = ContextualRule("SURROUNDTAG", ("VB", "AT"), "NN", "VB")
        assert not self._match(rule, 2)  # no right context at last position
        assert self._match(ContextualRule("SURROUNDTAG", ("AT", "NN"),
                                          "VB", "NN"), 1)

    def test_every_template_is_boundary_safe(self):
        # single-token sentence: nothing has context, so only templates that
        # read no context at all could match; all of ours read context.
        for template, arity in CONTEXTUAL_TEMPLATES.items():
            rule = ContextualRule(template, ("AT",) * arity, "NN", "VB")
            assert not contextual_rule_matches(rule, ("x",), ["NN"], 0)

    def test_offset_templates(self):
        words = ("a", "b", "c", "d")
        tags = ["T0", "T1", "T2", "T3"]
        cases = [
            (ContextualRule("PREV2TAG", ("T1",), "T3", "X"), 3, True),
            (ContextualRule("NEXT2TAG", ("T2",), "T0", "X"), 0, True),
            (ContextualRule("PREV1OR2TAG", ("T1",), "T3", "X"), 3, True),
            (ContextualRule("PREV1OR2TAG", ("T0",), "T3", "X"), 3, False),
            (ContextualRule("PREV1OR2OR3TAG", ("T0",), "T3", "X"), 3, True),
            (ContextualRule("NEXT1OR2TAG", ("T2",), "T0", "X"), 0, True),
            (ContextualRule("NEXT1OR2OR3TAG", ("T3",), "T0", "X"), 0, True),
            (ContextualRule("PREVWD", ("c",), "T3", "X"), 3, True),
            (ContextualRule("NEXTWD", ("b",), "T0", "X"), 0, True),
            (ContextualRule("PREVBIGRAM", ("T1", "T2"), "T3", "X"), 3, True),
            (ContextualRule("NEXTBIGRAM", ("T1", "T2"), "T0", "X"), 0, True),
            (ContextualRule("NEXTBIGRAM", ("T2", "T1"), "T0", "X"), 0, False),
        ]
        for rule, pos, expected in cases:
            assert contextual_rule_matches(rule, words, tags, pos) == expected, rule


class TestApplyContextualRules:
    def test_basic_application(self):
        rule = ContextualRule("PREVTAG", ("AT",), "VB", "NN")
        tags = ["AT", "VB"]
        apply_contextual_rule(rule, ("the", "run"), tags)
        assert tags == ["AT", "NN"]

    def test_left_to_right_cascade(self):
        rule = ContextualRule("PREVTAG", ("A",), "B", "A")
        tags = ["A", "B", "B"]
        apply_contextual_rule(rule, ("x", "y", "z"), tags)
        assert tags == ["A", "A", "A"]

    def test_empty_rule_list(self):
        state = [(("a",), ["NN"])]
        apply_contextual_rules((), state)
        assert state == [(("a",), ["NN"])]

    def test_sentences_independent(self):
        rule = ContextualRule("PREVTAG", ("AT",), "VB", "NN")
        state = [(("the",), ["AT"]), (("run",), ["VB"])]
        apply_contextual_rules((rule,), state)
        assert state[1][1] == ["VB"]

    def test_order_sensitivity_witness(self):
        # rule b's trigger tag is created by rule a
        a = ContextualRule("PREVTAG", ("AT",), "VB", "NN")
        b = ContextualRule("PREVTAG", ("NN",), "AT", "VB")
        words = ("the", "run", "the")
        t1 = ["AT", "VB", "AT"]
        apply_contextual_rules((a, b), [(words, t1)])
        t2 = ["AT", "VB", "AT"]
        apply_contextual_rules((b, a), [(words, t2)])
        assert t1 != t2


# Few tags and words, so that a sentence repeats from_tags and rules chain;
# up to 12 tokens, so that every template's window reaches both ends.
CONTEXT_CASE_TAGS = ("NN", "VB", "FW")
CONTEXT_CASE_MAX_LEN = 12


@st.composite
def contextual_cases_st(draw):
    """(rules, state, lexicon): rules of all 13 templates, sentence states
    whose starting tags are their words' lexicon tags, and the lexicon.
    Rules repeat from_tags, and a rule whose from_tag is an earlier rule's
    to_tag follows it."""
    lexicon = draw(st.dictionaries(st.text("abc", min_size=1, max_size=2),
                                   st.sampled_from(CONTEXT_CASE_TAGS),
                                   min_size=1, max_size=6))
    words = sorted(lexicon)
    tag_pairs = st.tuples(*[st.sampled_from(CONTEXT_CASE_TAGS)] * 2).filter(
        lambda pair: pair[0] != pair[1])

    @st.composite
    def rule_st(draw, from_tag=st.sampled_from(CONTEXT_CASE_TAGS)):
        template = draw(st.sampled_from(sorted(CONTEXT_TABLE)))
        pool = words if CONTEXT_TABLE[template][0] == WORDS \
            else CONTEXT_CASE_TAGS
        args = tuple(draw(st.sampled_from(pool))
                     for _ in range(CONTEXTUAL_TEMPLATES[template]))
        frm = draw(from_tag)
        to = draw(st.sampled_from([t for t in CONTEXT_CASE_TAGS if t != frm]))
        return ContextualRule(template, args, frm, to)

    rules = draw(st.lists(rule_st(), min_size=1, max_size=8))
    at = draw(st.integers(0, len(rules) - 1))
    rules.append(draw(rule_st(st.just(rules[at].to_tag))))
    sentences = draw(st.lists(
        st.lists(st.sampled_from(words), min_size=1,
                 max_size=CONTEXT_CASE_MAX_LEN).map(tuple),
        min_size=1, max_size=4))
    return (tuple(rules), [(sent, [lexicon[w] for w in sent])
                           for sent in sentences], lexicon)


class TestContextualRuleApplication:
    """``apply_contextual_rules`` and ``rules.Tagger``'s position map
    against the reference that checks every position of every sentence."""

    @given(contextual_cases_st())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, case):
        rules, state, lexicon = case
        want = [(words, list(tags)) for words, tags in state]
        reference_apply_contextual_rules(rules, want)
        got = [(words, list(tags)) for words, tags in state]
        apply_contextual_rules(rules, got)
        assert got == want
        tagset = make_tagset(CONTEXT_CASE_TAGS,
                             dict.fromkeys(REQUIRED_ROLES, "FW"))
        model = TaggerModel(tagset, Lexicon({w: ((t, 1),) for w, t
                                             in lexicon.items()}),
                            default_greek_chain(), (), rules)
        raw = [tuple(map(Token, words)) for words, _ in state]
        assert [[t.tag for t in sent] for sent
                in tag_corpus(raw, model).sentences] == \
            [tags for _, tags in want]
        for sent, (_, tags) in zip(raw, want):
            assert [t.tag for t in tag_corpus([sent], model).sentences[0]] \
                == tags


class TestTagCorpus:
    @staticmethod
    def _model(corpus, lexical=(), contextual=()):
        return TaggerModel(corpus.tagset, build_lexicon(corpus),
                           default_greek_chain(), tuple(lexical),
                           tuple(contextual))

    def test_known_words_empty_rules_is_baseline(self, tiny_corpus):
        model = self._model(tiny_corpus)
        raw = [tuple(Token(t.word) for t in s) for s in tiny_corpus.sentences]
        tagged = tag_corpus(raw, model)
        for sent in tagged.sentences:
            for tok in sent:
                assert tok.tag == model.lexicon.most_frequent_tag(tok.word)

    def test_empty_input(self, tiny_corpus):
        assert tag_corpus([], self._model(tiny_corpus)).sentences == ()

    def test_unknown_words_flow_through_default_rule(self, tiny_corpus):
        model = self._model(tiny_corpus)
        tagged = tag_corpus([(Token("Microsoft"), Token("Άννα"),
                              Token("πόλη"))], model)
        tags = [t.tag for t in tagged.sentences[0]]
        assert tags == ["FW", "PROP", "NNF"]

    def test_pipeline_equals_manual_composition(self, tiny_corpus):
        lexical = (LexicalRule("HASSUF", "η", None, "NN"),)
        contextual = (ContextualRule("PREVTAG", ("AT",), "NN", "VB"),)
        model = self._model(tiny_corpus, lexical, contextual)
        raw = [(Token("ο"), Token("πόλη")), (Token("γάτα"), Token("."))]
        got = tag_corpus(raw, model)

        # manual: initial tags, lexical pass over unknown types, contextual
        state = []
        unknown = {}
        for sent in raw:
            for tok in sent:
                if tok.word not in model.lexicon:
                    unknown[tok.word] = initial_tag(
                        tok.word, model.lexicon, model.initial_chain,
                        model.tagset)
        unknown = apply_lexical_rules(lexical, unknown, model.lexicon)
        for sent in raw:
            words = tuple(t.word for t in sent)
            tags = [unknown.get(w) or model.lexicon.most_frequent_tag(w)
                    for w in words]
            state.append((words, tags))
        apply_contextual_rules(contextual, state)
        want = [list(tags) for _, tags in state]
        assert [[t.tag for t in s] for s in got.sentences] == want


def lexical_rules_st(affix=words_st(max_size=4), tags=TAG_NAMES):
    tag_pairs = st.tuples(st.one_of(st.none(), st.sampled_from(tags)),
                          st.sampled_from(tags)).filter(
                              lambda p: p[0] != p[1])

    def build(template, arg, pair):
        if template == "HASCHAR":
            arg = arg[0]
        return LexicalRule(template, arg, pair[0], pair[1])

    return st.builds(build,
                     st.sampled_from(("HASSUF", "HASPREF", "DELETESUF",
                                      "DELETEPREF", "ADDSUF", "ADDPREF",
                                      "HASCHAR")),
                     affix, tag_pairs)


def contextual_rules_st(word=words_st(max_size=5), tags=TAG_NAMES):
    tag_pairs = st.tuples(st.sampled_from(tags),
                          st.sampled_from(tags)).filter(
                              lambda p: p[0] != p[1])

    def build(template, args, pair):
        return ContextualRule(template,
                              tuple(args[:CONTEXTUAL_TEMPLATES[template]]),
                              pair[0], pair[1])

    arg = st.one_of(st.sampled_from(tags), word)
    return st.builds(build, st.sampled_from(sorted(CONTEXTUAL_TEMPLATES)),
                     st.tuples(arg, arg), tag_pairs)


# Latin-initial, Greek-capital-initial and other words, and tags, few
# enough that drawn rules fire, often on tags earlier rules made, and drawn
# corpora share words
TAGGING_CHARS = "abαβΆ"
TAGGING_TAGS = ("NN", "VB", "FW", "NNF")


def tagged_sentences_st(word, max_sentences):
    token = st.builds(Token, word, st.sampled_from(TAGGING_TAGS))
    return st.lists(st.lists(token, min_size=1, max_size=8).map(tuple),
                    min_size=1, max_size=max_sentences).map(tuple)


@st.composite
def tagging_cases_st(draw):
    """(model, other, first, second): a model over a few characters, one
    that differs from it only in its rules, and two raw corpora mixing its
    known words with unknown ones."""
    word = st.text(TAGGING_CHARS, min_size=1, max_size=4)
    affix = st.text(TAGGING_CHARS, min_size=1, max_size=2)
    corpus = TaggedCorpus(draw(tagged_sentences_st(word, 5)), make_tagset())
    lexicon = build_lexicon(corpus)

    def rules():
        return (tuple(draw(st.lists(lexical_rules_st(affix, TAGGING_TAGS),
                                    max_size=5))),
                tuple(draw(st.lists(contextual_rules_st(word, TAGGING_TAGS),
                                    max_size=8))))

    model = TaggerModel(corpus.tagset, lexicon, default_greek_chain(),
                        *rules())
    lexical, contextual = rules()
    other = replace(model, lexical_rules=lexical, contextual_rules=contextual)
    raw = st.one_of(st.sampled_from(sorted(lexicon.entries)), word)
    first, second = (draw(tagged_sentences_st(raw, 5)) for _ in range(2))
    first, second = ([tuple(Token(t.word) for t in sent) for sent in sents]
                     for sents in (first, second))
    return model, other, first, second


class TestTagger:
    """``rules.Tagger`` against the reference pipeline, cold and with its
    memo of unknown types warm."""

    @given(tagging_cases_st())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, case):
        model, other, first, second = case
        want = reference_tag_corpus(second, model)
        assert tag_corpus(second, replace(model)) == want
        for sent in second:
            assert tag_corpus([sent], model) == \
                reference_tag_corpus([sent], model)
        warm = replace(model)
        tag_corpus(first, warm)
        assert tag_corpus(second, warm) == want
        # a model differing only in its rules starts from its own memo
        assert tag_corpus(second, other) == reference_tag_corpus(second, other)
        assert other.tagger.tags is not model.tagger.tags
        assert other.tagger.tokens is not model.tagger.tokens

    def test_rule_fires_on_a_tag_an_earlier_rule_made(self, tiny_corpus):
        # "ο γάτα" starts as AT NN: the first rule makes the VB that the
        # second rule needs
        model = TestTagCorpus._model(tiny_corpus, contextual=(
            ContextualRule("PREVTAG", ("AT",), "NN", "VB"),
            ContextualRule("PREVTAG", ("AT",), "VB", "PUNCT")))
        tagged = tag_corpus([(Token("ο"), Token("γάτα"))], model)
        assert [t.tag for t in tagged.sentences[0]] == ["AT", "PUNCT"]

    @staticmethod
    def _tag_counting_rewrites(model, raw, monkeypatch):
        """(tags of each sentence, number of ``rewrite_sentence`` calls)."""
        calls = []

        def counted(*args):
            calls.append(args)
            return rewrite_sentence(*args)
        monkeypatch.setattr(rules_module, "rewrite_sentence", counted)
        tagged = tag_corpus(raw, model)
        n_calls = len(calls)
        assert tagged == reference_tag_corpus(raw, model)
        return [[t.tag for t in sent] for sent in tagged.sentences], n_calls

    def test_rule_fires_on_a_context_tag_an_earlier_rule_made(
            self, tiny_corpus, monkeypatch):
        # "ο γάτα ." starts as AT NN PUNCT: the sentence holds no VB
        # until the first rule makes the one the second rule reads
        model = TestTagCorpus._model(tiny_corpus, contextual=(
            ContextualRule("PREVTAG", ("AT",), "NN", "VB"),
            ContextualRule("PREVTAG", ("VB",), "PUNCT", "FW")))
        raw = [(Token("ο"), Token("γάτα"), Token("."))]
        assert self._tag_counting_rewrites(model, raw, monkeypatch) == \
            ([["AT", "VB", "FW"]], 2)

    def test_rule_reading_its_own_to_tag_cascades(self, tiny_corpus,
                                                  monkeypatch):
        # "τρέχει γάτα γάτα" starts as VB NN NN
        model = TestTagCorpus._model(tiny_corpus, contextual=(
            ContextualRule("PREVTAG", ("VB",), "NN", "VB"),))
        raw = [(Token("τρέχει"), Token("γάτα"), Token("γάτα"))]
        assert self._tag_counting_rewrites(model, raw, monkeypatch) == \
            ([["VB", "VB", "VB"]], 1)

    def test_rule_skipped_once_its_context_tag_is_gone(self, tiny_corpus,
                                                       monkeypatch):
        # "ο γάτα ." starts as AT NN PUNCT; the first rule retags the
        # only AT, so the second rule, which reads AT, is not run
        model = TestTagCorpus._model(tiny_corpus, contextual=(
            ContextualRule("NEXTTAG", ("NN",), "AT", "FW"),
            ContextualRule("PREVTAG", ("AT",), "NN", "VB")))
        raw = [(Token("ο"), Token("γάτα"), Token("."))]
        assert self._tag_counting_rewrites(model, raw, monkeypatch) == \
            ([["FW", "NN", "PUNCT"]], 1)

    # "ο γάτα" starts as AT NN, "γάτα ." as NN PUNCT: the rule retags
    # γάτα after ο only
    RETAG = ContextualRule("PREVTAG", ("AT",), "NN", "VB")

    def test_kept_tags_reuse_their_tokens(self, tiny_corpus):
        model = TestTagCorpus._model(tiny_corpus, contextual=(self.RETAG,))
        # the rule fires in the first sentence only
        raw = [(Token("ο"), Token("γάτα"), Token("γάτα"), Token("Άννα")),
               (Token("Άννα"), Token("γάτα"), Token("."))]
        for sent in raw:
            first, second = (tag_corpus([sent], model).sentences[0]
                             for _ in range(2))
            assert second == first
            for a, b in zip(first, second):
                # only the retagged γάτα is a new Token each time
                assert (a is b) == (a.tag != "VB")
        assert [t.tag for t in first] == ["PROP", "NN", "PUNCT"]
        assert first[1] is model.tagger.tokens["γάτα"]
        assert [t.tag for t in tag_corpus(raw[:1], model).sentences[0]] == \
            ["AT", "VB", "NN", "PROP"]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_word_retagged_in_one_sentence_only(self, tiny_corpus, order):
        model = TestTagCorpus._model(tiny_corpus, contextual=(self.RETAG,))
        raw = [(Token("ο"), Token("γάτα")), (Token("γάτα"), Token("."))]
        want = [["AT", "VB"], ["NN", "PUNCT"]]
        for i in order:
            tagged = tag_corpus([raw[i]], model)
            assert [t.tag for t in tagged.sentences[0]] == want[i]
        ordered = [raw[i] for i in order]
        assert [[t.tag for t in sent] for sent
                in tag_corpus(ordered, model).sentences] == \
            [want[i] for i in order]

    def test_model_differing_in_rules_shares_no_token(self, tiny_corpus):
        # Άννα starts as PROP; the other model's lexical rule makes it NN
        model = TestTagCorpus._model(tiny_corpus)
        other = replace(model, lexical_rules=(
            LexicalRule("HASSUF", "α", None, "NN"),))
        raw = [(Token("Άννα"), Token("γάτα"))]
        assert [t.tag for t in tag_corpus(raw, model).sentences[0]] == \
            ["PROP", "NN"]
        tagged = tag_corpus(raw, other).sentences[0]
        assert [t.tag for t in tagged] == ["NN", "NN"]
        assert other.tagger.tokens is not model.tagger.tokens
        assert tagged[1] is not model.tagger.tokens["γάτα"]

    def test_built_once_per_model(self, tiny_corpus):
        model = TestTagCorpus._model(tiny_corpus)
        assert model.tagger is model.tagger
        assert replace(model).tagger is not model.tagger
        tag_corpus([(Token("Άννα"), Token("ο"))], model)
        assert set(model.tagger.tags) - set(model.lexicon.entries) == {"Άννα"}


# Args of up to 6 characters reach past every lexicon entry (at most 4)
# and past the learner's default max_affix_len of 4.
INDEX_CHARS = "abαΆ"
INDEX_ARG_MAX = 6


@st.composite
def lexical_index_cases_st(draw):
    """(rules, assignments, lexicon): rules of all seven templates with
    duplicates and to_tag -> from_tag chains among them, and words that
    hold their keys. Some args are pieces of lexicon entries, and some
    words are entries with a rule's arg added or taken away, so that ADD
    and DELETE rules match."""
    affix = st.text(INDEX_CHARS, min_size=1, max_size=INDEX_ARG_MAX)
    entries = draw(st.lists(st.text(INDEX_CHARS, min_size=1, max_size=4),
                            max_size=5, unique=True))
    lexicon = Lexicon({e: (("NN", 1),) for e in entries})
    pieces = sorted({e[:k] for e in entries for k in range(1, len(e))}
                    | {e[k:] for e in entries for k in range(1, len(e))})
    if pieces:
        affix = st.one_of(affix, st.sampled_from(pieces))
    rules = draw(st.lists(lexical_rules_st(affix, TAGGING_TAGS),
                          max_size=8))
    if rules:
        rules += draw(st.lists(st.sampled_from(rules), max_size=2))
        # a rule whose from_tag is a drawn rule's to_tag
        from_tag = draw(st.sampled_from(rules)).to_tag
        base = draw(lexical_rules_st(affix, TAGGING_TAGS))
        rules.append(LexicalRule(base.template, base.arg, from_tag, draw(
            st.sampled_from([t for t in TAGGING_TAGS if t != from_tag]))))
        rules = draw(st.permutations(rules))
    # words that an ADD rule extends to an entry, or a DELETE rule
    # shortens to one
    shortened = sorted({word for rule in rules for e in entries
                        for word in (e.removeprefix(rule.arg),
                                     e.removesuffix(rule.arg))}
                       - {""} - set(entries))
    extended = sorted({word for rule in rules for e in entries
                       for word in (rule.arg + e, e + rule.arg)})
    words = draw(st.lists(st.text(INDEX_CHARS, min_size=1, max_size=8),
                          max_size=4))
    for pool in (entries, shortened, extended):
        if pool:
            words += draw(st.lists(st.sampled_from(pool), max_size=4))
    tag = st.sampled_from(TAGGING_TAGS)
    return tuple(rules), {word: draw(tag) for word in words}, lexicon


class TestLexicalRuleIndex:
    """``rules.LexicalRuleIndex`` against the per-rule scan, and the
    number of rules it asks ``lexical_template_matches`` about."""

    # No shrinking, as in TestModelRoundTrip: shrinking a failure of this
    # strategy took minutes.
    @given(lexical_index_cases_st())
    @settings(max_examples=200, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_apply_equals_reference(self, case):
        rules, assignments, lexicon = case
        assert apply_lexical_rules(rules, assignments, lexicon) == \
            reference_apply_lexical_rules(rules, assignments, lexicon)

    @given(lexical_index_cases_st())
    @settings(max_examples=200, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_candidates_hold_every_match(self, case):
        rules, assignments, lexicon = case
        index = LexicalRuleIndex(rules, lexicon)
        for word in (*assignments, *lexicon.entries):
            found = index.candidates(word)
            assert found == sorted(set(found))
            assert set(found) >= {
                i for i, rule in enumerate(rules)
                if lexical_template_matches(rule.template, rule.arg, word,
                                            lexicon)}

    RULES = (LexicalRule("HASSUF", "ος", None, "NN"),
             LexicalRule("DELETESUF", "ων", None, "VB"),
             LexicalRule("HASPREF", "προ", None, "VB"),
             LexicalRule("DELETEPREF", "ξε", None, "VB"),
             LexicalRule("HASCHAR", "ψ", None, "NN"),
             LexicalRule("ADDPREF", "α", None, "VB"),
             LexicalRule("ADDSUF", "ι", None, "VB"))

    @pytest.fixture
    def asked(self, monkeypatch):
        """The (template, arg, word) of every ``lexical_template_matches``
        call the package makes."""
        calls = []
        real = rules_module.lexical_template_matches

        def counted(template, arg, word, lexicon):
            calls.append((template, arg, word))
            return real(template, arg, word, lexicon)

        monkeypatch.setattr(rules_module, "lexical_template_matches", counted)
        return calls

    def test_word_without_keys_asks_no_rule(self, tiny_corpus, asked):
        model = TestTagCorpus._model(tiny_corpus, self.RULES)
        tag_corpus([(Token("βιβλίο"), Token("ο"), Token("δέντρα"))], model)
        assert set(model.tagger.tags) - set(model.lexicon.entries) == {
            "βιβλίο", "δέντρα"}
        assert asked == []

    def test_word_with_one_suffix_asks_that_rule(self, tiny_corpus, asked):
        model = TestTagCorpus._model(tiny_corpus, self.RULES)
        tagged = tag_corpus([(Token("λόγος"),)], model)
        assert asked == [("HASSUF", "ος", "λόγος")]
        assert tagged.sentences[0][0].tag == "NN"

    def test_index_built_once_per_model(self, tiny_corpus, monkeypatch):
        built = []

        class Counted(LexicalRuleIndex):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(rules_module, "LexicalRuleIndex", Counted)
        model = TestTagCorpus._model(tiny_corpus, self.RULES)
        for word in ("λόγος", "βιβλίο", "λόγος", "ψάρι"):
            tag_corpus([(Token(word),)], model)
        assert len(built) == 1


class TestRuleSerialization:
    def test_lexical_format(self, tagset):
        rule = LexicalRule("HASSUF", "ed", None, "VB")
        assert serialize_rules(lexical_rules=[rule]) == "LEX HASSUF ed - VB\n"

    def test_contextual_format(self, tagset):
        rule = ContextualRule("PREVTAG", ("AT",), "VB", "NN")
        assert serialize_rules(contextual_rules=[rule]) == \
            "CTX PREVTAG VB NN AT\n"

    def test_comments_and_blanks_skipped(self, tagset):
        lex, ctx = parse_rules("# comment\n\nLEX HASSUF ed - VB\n", tagset)
        assert len(lex) == 1 and not ctx

    def test_unknown_template_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_rules("LEX NOSUCH ed - VB", tagset)

    def test_unknown_tag_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_rules("CTX PREVTAG VB BOGUS AT", tagset)

    def test_bad_arity_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_rules("CTX SURROUNDTAG VB NN AT", tagset)

    @given(st.lists(lexical_rules_st(), max_size=6),
           st.lists(contextual_rules_st(), max_size=6))
    @settings(max_examples=60)
    def test_round_trip(self, lexical, contextual):
        text = serialize_rules(lexical, contextual)
        lex2, ctx2 = parse_rules(text, make_tagset())
        assert list(lex2) == lexical
        assert list(ctx2) == contextual
        assert serialize_rules(lex2, ctx2) == text


class TestModelPersistence:
    def _model(self, corpus):
        return TaggerModel(
            corpus.tagset, build_lexicon(corpus), default_greek_chain(),
            (LexicalRule("HASSUF", "α", None, "NN"),),
            (ContextualRule("PREVTAG", ("AT",), "NN", "VB"),))

    def test_round_trip(self, tiny_corpus, tmp_path):
        model = self._model(tiny_corpus)
        path = str(tmp_path / "model")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.tagset == model.tagset
        assert loaded.lexicon == model.lexicon
        assert loaded.lexical_rules == model.lexical_rules
        assert loaded.contextual_rules == model.contextual_rules

    def test_loaded_model_tags_identically(self, tiny_corpus, tmp_path):
        model = self._model(tiny_corpus)
        path = str(tmp_path / "model")
        save_model(model, path)
        loaded = load_model(path)
        raw = [(Token("ο"), Token("μέρα"), Token("γάτα"))]
        assert serialize_tagged_corpus(tag_corpus(raw, loaded)) == \
            serialize_tagged_corpus(tag_corpus(raw, model))

    def test_missing_file_rejected(self, tiny_corpus, tmp_path):
        path = str(tmp_path / "model")
        save_model(self._model(tiny_corpus), path)
        (tmp_path / "model" / "LEXRULES").unlink()
        with pytest.raises(ModelError):
            load_model(path)

    def test_overwrites_existing_directory(self, tiny_corpus, tmp_path):
        model = self._model(tiny_corpus)
        path = str(tmp_path / "model")
        save_model(model, path)
        save_model(model, path)
        assert load_model(path).lexicon == model.lexicon

    def test_overwrite_keeps_a_complete_model_at_every_step(
            self, tiny_corpus, tmp_path, monkeypatch):
        # the old model is renamed aside before the new one moves in; if
        # that second rename fails, the old model is put back unchanged
        old = self._model(tiny_corpus)
        new = TaggerModel(old.tagset, old.lexicon, old.initial_chain, (), ())
        path = str(tmp_path / "model")
        save_model(old, path)
        real_replace = os.replace
        renames = []

        def failing_second_rename(src, dst):
            renames.append((src, dst))
            if len(renames) == 2:
                aside = renames[0][1]
                assert load_model(aside) == old
                raise OSError("simulated failure")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_second_rename)
        with pytest.raises(OSError):
            save_model(new, path)
        monkeypatch.undo()
        assert renames[0][0] == path
        assert load_model(path) == old
        assert os.listdir(tmp_path) == ["model"]
        save_model(new, path)
        assert load_model(path) == new
        assert os.listdir(tmp_path) == ["model"]

    @given(corpora_st(max_sentences=5),
           st.lists(lexical_rules_st(), max_size=4),
           st.lists(contextual_rules_st(), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, corpus, lexical, contextual):
        if not corpus.sentences:
            return
        import tempfile
        model = TaggerModel(corpus.tagset, build_lexicon(corpus),
                            default_greek_chain(), tuple(lexical),
                            tuple(contextual))
        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/model"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.tagset == model.tagset
            assert loaded.lexicon == model.lexicon
            assert loaded.lexical_rules == model.lexical_rules
            assert loaded.contextual_rules == model.contextual_rules


# Characters the model files give a meaning: what str.split() and
# str.splitlines() break fields and lines on (more than space and newline),
# "-" (no from_tag in LEXRULES), ":" (LEXICON), "#" (comments) and "/".
FORMAT_CHARS = "-:#/ \t\n\r\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u3000"


def kept(build, items):
    """What ``build`` makes of each item, leaving out the items it refuses."""
    out = []
    for item in items:
        try:
            out.append(build(item))
        except TaggerError:
            pass
    return out


def chains_st():
    branch = st.tuples(st.sampled_from((STARTS_LATIN, STARTS_GREEK_CAPITAL,
                                        ALWAYS)),
                       st.sampled_from(REQUIRED_ROLES))
    return st.builds(lambda head, role: InitialRuleChain(
        tuple(head) + ((ALWAYS, role),)),
        st.lists(branch, max_size=3), st.sampled_from(REQUIRED_ROLES))


@st.composite
def models_st(draw):
    """A model built from anything the in-memory types accept: names and
    words are drawn from all of Unicode, ``FORMAT_CHARS`` more often, and
    the types decide what stays."""
    text = st.text(alphabet=st.one_of(st.sampled_from(FORMAT_CHARS),
                                      st.characters()), max_size=4)
    field = st.one_of(text, st.text(max_size=4))   # more often accepted
    tags = kept(lambda t: Tagset([t], {k: t for k in REQUIRED_ROLES}).tags[0],
                draw(st.lists(st.one_of(st.sampled_from("-:#"), text),
                              min_size=2, max_size=8, unique=True)))
    assume(tags)
    tag = st.sampled_from(tags)
    name = st.one_of(tag, tag, tag, text)   # now and then not a tag
    tagset = Tagset(tags, {key: draw(tag) for key in REQUIRED_ROLES})
    chain = default_greek_chain()
    # load_model restores only the default chain, so no other is accepted
    other = draw(st.one_of(st.none(), chains_st()))
    if other is not None and other != chain:
        with pytest.raises(TaggerError):
            TaggerModel(tagset, Lexicon({}), other, (), ())

    def model(entries={}, lexical=(), contextual=()):
        return TaggerModel(tagset, Lexicon(entries), chain, tuple(lexical),
                           tuple(contextual))

    def entry(word):
        # mostly positive integers, a few zero, negative or fractional
        count = st.integers(-1, 60).map(lambda c: c + 0.5 if c > 50 else c)
        counts = draw(st.dictionaries(name, count, min_size=1, max_size=3))
        return model(entries={word: tuple(sorted(
            counts.items(), key=lambda p: (-p[1], p[0])))}).lexicon.entries

    entries = {}
    for e in kept(entry, draw(st.lists(field, min_size=1, max_size=12,
                                       unique=True))):
        entries.update(e)
    lexical = kept(lambda t: model(lexical=[LexicalRule(
        t, draw(field), draw(st.one_of(st.none(), tag)), draw(tag))]
    ).lexical_rules[0],
        draw(st.lists(st.sampled_from(LEXICAL_TEMPLATES), min_size=1,
                      max_size=8)))
    contextual = kept(lambda t: model(contextual=[ContextualRule(
        t, tuple(draw(st.one_of(tag, text))
                 for _ in range(CONTEXTUAL_TEMPLATES[t])),
        draw(tag), draw(tag))]).contextual_rules[0],
        draw(st.lists(st.sampled_from(sorted(CONTEXTUAL_TEMPLATES)),
                      max_size=8)))
    return model(entries, lexical, contextual)


class TestModelRoundTrip:
    """Every model the in-memory types accept survives the model directory
    unchanged; what the file formats cannot hold is refused up front."""

    @given(models_st(), st.lists(st.lists(st.text(min_size=1, max_size=6),
                                          min_size=1, max_size=5), max_size=4))
    # No shrinking: on this strategy it ran for minutes before reporting a
    # failure, which is reported as first found instead.
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_save_load_save_is_byte_identical(self, model, sentences):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = tmp + "/first", tmp + "/second"
            save_model(model, first)
            loaded = load_model(first)
            save_model(loaded, second)
            for name in MODEL_FILES:
                with open(os.path.join(first, name), "rb") as a, \
                        open(os.path.join(second, name), "rb") as b:
                    assert a.read() == b.read(), name
        assert loaded == model
        raw = [tuple(Token(w) for w in sent) for sent in sentences]
        assert tag_corpus(raw, loaded) == tag_corpus(raw, model)

    def test_dash_is_not_a_tag_name(self):
        # "-" marks a lexical rule without from_tag in LEXRULES
        with pytest.raises(TagsetError):
            make_tagset(tags=TAG_NAMES + ("-",))

    def test_non_default_chain_rejected(self, tagset):
        # it would reload with the default chain and tag differently
        with pytest.raises(TaggerError):
            TaggerModel(tagset, Lexicon({}),
                        InitialRuleChain(((ALWAYS, "FOREIGN"),)), (), ())

    def test_non_default_chain_rejected_for_training(self, tiny_corpus):
        # contextual training starts from a model's tagger, so the model
        # refuses the chain there too
        chain = InitialRuleChain(((ALWAYS, "FOREIGN"),))
        with pytest.raises(TaggerError):
            initial_contextual_state(tiny_corpus, build_lexicon(tiny_corpus),
                                     (), chain)

    def test_lexicon_tag_outside_tagset_rejected(self, tagset):
        with pytest.raises(TagsetError):
            TaggerModel(tagset, Lexicon({"a": (("ZZ", 1),)}),
                        default_greek_chain(), (), ())

    @pytest.mark.parametrize("build", [
        lambda: LexicalRule("HASSUF", "a b", None, "NN"),
        lambda: ContextualRule("PREVWD", ("a b",), "NN", "VB"),
        lambda: ContextualRule("NEXTWD", ("a\tb",), "NN", "VB"),
        lambda: ContextualRule("SURROUNDTAG", ("AT", ""), "NN", "VB"),
        lambda: TaggerModel(make_tagset(), Lexicon({"a b": (("NN", 1),)}),
                            default_greek_chain(), (), ()),
        lambda: TaggerModel(make_tagset(), Lexicon({"\u2028": (("NN", 1),)}),
                            default_greek_chain(), (), ()),
        lambda: Lexicon({"a": (("NN", 1.5),)}),
        lambda: Lexicon({"a": (("NN", 10 ** 5000),)}),
        # a lone surrogate cannot be written as UTF-8
        lambda: make_tagset(tags=TAG_NAMES + ("B\udc36",)),
        lambda: TaggerModel(make_tagset(), Lexicon({"w\udc36": (("NN", 1),)}),
                            default_greek_chain(), (), ()),
        lambda: LexicalRule("HASSUF", "x\udc36", None, "NN"),
    ], ids=["lexical-arg", "prevwd-arg", "nextwd-arg", "empty-arg",
            "lexicon-word", "lexicon-line-separator", "lexicon-count",
            "lexicon-count-too-long", "surrogate-tag", "surrogate-word",
            "surrogate-arg"])
    def test_field_that_would_not_reload_rejected(self, build):
        with pytest.raises(TaggerError):
            build()

    def test_longest_writable_count_round_trips(self, tagset):
        # the most digits the interpreter converts (0: no limit)
        count = 10 ** ((sys.get_int_max_str_digits() or 4300) - 1)
        lexicon = Lexicon({"a": (("NN", count),)})
        assert parse_lexicon(serialize_lexicon(lexicon), tagset) == lexicon
