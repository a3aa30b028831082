"""Frequency lexicon, script classification and the initial tagging rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltagger.corpus import ParseError, TaggedCorpus, TaggerError, Token
from tbltagger.lexicon import (GREEK_CAPITAL_START, LATIN_START, OTHER,
                               InitialRuleChain, Lexicon, build_lexicon,
                               classify_script, default_greek_chain,
                               initial_tag, parse_lexicon, serialize_lexicon)

from conftest import TAG_NAMES, corpora_st, make_tagset
from oracles import reference_build_lexicon, reference_parse_lexicon


def outcome(call, *args):
    """``("ok", value)``, or what ``call`` raised: its type, message and
    line."""
    try:
        return "ok", call(*args)
    except TaggerError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# "WORD" stands for a word of an earlier entry
DAMAGED_PAIRS = ("BOGUS:1", "NN:0", "NN:x", "NN:\u00b2", "NN", "WORD")


@st.composite
def lexicon_texts_st(draw):
    """A lexicon text whose entries repeat a few ``tag:count`` items, with
    blank lines and mixed whitespace, and at most one damaged item placed
    after good repeats of the items."""
    pairs = st.lists(st.tuples(st.sampled_from(TAG_NAMES[:3]),
                               st.sampled_from((1, 2, 12))),
                     min_size=1, max_size=3, unique_by=lambda p: p[0])
    entries = [["w%d" % i] + ["%s:%d" % p for p in
                              sorted(ps, key=lambda p: (-p[1], p[0]))]
               for i, ps in enumerate(draw(st.lists(pairs, min_size=1,
                                                    max_size=12)))]
    damaged = draw(st.none() | st.sampled_from(DAMAGED_PAIRS))
    if damaged is not None:
        row = draw(st.integers(1, len(entries)))
        if damaged == "WORD":
            entries.insert(row, [draw(st.sampled_from(entries))[0], "NN:1"])
        else:
            entries.insert(row, ["bad", "NN:1"])
            entries[row].insert(draw(st.integers(1, 2)), damaged)
    seps = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0"])
    lines = [draw(seps).join(fields) for fields in entries]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(seps))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def corpus_of(tokens, tagset):
    return TaggedCorpus((tuple(Token(w, t) for w, t in tokens),), tagset)


class TestBuildLexicon:
    def test_frequency_order(self, tagset):
        c = corpus_of([("can", "VB"), ("can", "VB"), ("can", "NN")], tagset)
        lex = build_lexicon(c)
        assert lex.entries["can"] == (("VB", 2), ("NN", 1))
        assert lex.most_frequent_tag("can") == "VB"

    def test_tie_break_by_tag_name(self, tagset):
        c = corpus_of([("a", "VB"), ("a", "AT")], tagset)
        assert build_lexicon(c).entries["a"] == (("AT", 1), ("VB", 1))

    def test_empty_corpus_rejected(self, tagset):
        with pytest.raises(TaggerError):
            build_lexicon(TaggedCorpus((), tagset))

    @given(corpora_st())
    def test_count_conservation(self, corpus):
        if not corpus.sentences:
            return
        lex = build_lexicon(corpus)
        total = sum(c for pairs in lex.entries.values() for _, c in pairs)
        assert total == corpus.word_count

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from("ab"),
                                       st.sampled_from(TAG_NAMES[:4])),
                             min_size=1, max_size=8),
                    min_size=1, max_size=6))
    def test_equals_reference(self, sentences):
        # two words over four tags: most entries hold tied counts
        corpus = TaggedCorpus(tuple(tuple(Token(w, t) for w, t in sent)
                                    for sent in sentences), make_tagset())
        assert list(build_lexicon(corpus).entries.items()) == \
            list(reference_build_lexicon(corpus).entries.items())


class TestLexiconValidation:
    def test_rejects_non_positive_count(self):
        with pytest.raises(TaggerError):
            Lexicon({"w": (("NN", 0),)})

    def test_rejects_wrong_order(self):
        with pytest.raises(TaggerError):
            Lexicon({"w": (("NN", 1), ("VB", 2))})

    def test_rejects_empty_entry(self):
        with pytest.raises(TaggerError):
            Lexicon({"w": ()})


class TestClassifyScript:
    @pytest.mark.parametrize("word,expected", [
        ("Microsoft", LATIN_START),
        ("internet", LATIN_START),
        ("Z", LATIN_START),
        ("Άννα", GREEK_CAPITAL_START),
        ("Ελλάδα", GREEK_CAPITAL_START),
        ("Ϊ", GREEK_CAPITAL_START),
        ("Ώρα", GREEK_CAPITAL_START),
        ("εταιρεία", OTHER),
        ("άνθρωπος", OTHER),
        ("123", OTHER),
        (".", OTHER),
    ])
    def test_classes(self, word, expected):
        assert classify_script(word) == expected

    def test_empty_word_rejected(self):
        with pytest.raises(TaggerError):
            classify_script("")


class TestInitialTag:
    def test_known_word_most_frequent(self, tagset):
        lex = Lexicon({"can": (("VB", 2), ("NN", 1))})
        got = initial_tag("can", lex, default_greek_chain(), tagset)
        assert got == "VB"

    def test_unknown_latin_gets_foreign_role(self, tagset):
        lex = Lexicon({})
        got = initial_tag("Microsoft", lex, default_greek_chain(), tagset)
        assert got == tagset.roles["FOREIGN"]

    def test_unknown_greek_capital_gets_proper_role(self, tagset):
        lex = Lexicon({})
        got = initial_tag("Γιώργος", lex, default_greek_chain(), tagset)
        assert got == tagset.roles["PROPER_MASC_SG"]

    def test_unknown_other_gets_noun_role(self, tagset):
        lex = Lexicon({})
        got = initial_tag("πρόταση", lex, default_greek_chain(), tagset)
        assert got == tagset.roles["NOUN_FEM_SG"]

    def test_lookup_is_case_sensitive(self, tagset):
        lex = Lexicon({"microsoft": (("NN", 1),)})
        got = initial_tag("Microsoft", lex, default_greek_chain(), tagset)
        assert got == tagset.roles["FOREIGN"]


class TestInitialRuleChain:
    def test_only_the_default_branches_are_accepted(self):
        default = default_greek_chain().branches
        by_predicate = (("STARTS_LATIN", "FOREIGN"),
                        ("ALWAYS", "NOUN_FEM_SG"))
        for branches in ((), default[:2], default + default[-1:],
                         default[::-1], by_predicate,
                         ((OTHER, "NOUN_FEM_SG"),)):
            with pytest.raises(TaggerError):
                InitialRuleChain(branches)
        assert InitialRuleChain(tuple(default)) == default_greek_chain()

    def test_default_chain_order(self):
        # one branch per class of classify_script, so every word has one
        kinds = [p for p, _ in default_greek_chain().branches]
        assert kinds == [LATIN_START, GREEK_CAPITAL_START, OTHER]


class TestLexiconSerialization:
    def test_format(self):
        lex = Lexicon({"can": (("MD", 2), ("NN", 1))})
        assert serialize_lexicon(lex) == "can MD:2 NN:1\n"

    def test_non_positive_count_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_lexicon("can NN:0", tagset)

    def test_unknown_tag_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_lexicon("can BOGUS:1", tagset)

    def test_malformed_item_rejected(self, tagset):
        with pytest.raises(TaggerError):
            parse_lexicon("can NN", tagset)

    def test_error_message_leads_with_its_line(self, tagset):
        with pytest.raises(ParseError) as exc:
            parse_lexicon("can NN:1\n\nbad NN:1 VB:x", tagset)
        assert type(exc.value) is ParseError
        assert str(exc.value) == "line 3: malformed tag:count item 'VB:x'"
        assert (exc.value.line, exc.value.column) == (3, None)

    def test_duplicate_word_rejected_with_its_line(self, tagset):
        with pytest.raises(ParseError) as exc:
            parse_lexicon("can NN:1\nο AT:2\ncan VB:1\n", tagset)
        assert type(exc.value) is ParseError
        assert str(exc.value) == "line 3: duplicate lexicon word 'can'"
        assert (exc.value.line, exc.value.column) == (3, None)

    @given(lexicon_texts_st())
    @settings(max_examples=300)
    def test_equals_per_item_reference(self, text):
        # a repeated item is checked once: every refusal still names the
        # first damaged occurrence's line, and every good parse is equal
        tagset = make_tagset()
        assert (outcome(parse_lexicon, text, tagset)
                == outcome(reference_parse_lexicon, text, tagset))

    @given(corpora_st())
    def test_round_trip(self, corpus):
        if not corpus.sentences:
            return
        lex = build_lexicon(corpus)
        text = serialize_lexicon(lex)
        again = parse_lexicon(text, make_tagset())
        assert again == lex
        assert serialize_lexicon(again) == text
