"""Corpus model: parsing, serialization, folds, truncation."""

import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltagger.corpus import (FoldPlan, ParseError, TaggedCorpus, TaggerError,
                              Tagset, TagsetError, Token, kfold_split,
                              load_tagset, parse_raw_corpus,
                              parse_tagged_corpus, raw_sentences,
                              serialize_tagged_corpus, serialize_tagset,
                              truncate_to_words)
from tbltagger.evaluate import strip_tags

from conftest import (DEFAULT_ROLES, TAG_NAMES, corpora_st, make_tagset,
                      sentences_st)
from oracles import reference_check_tagged_corpus, reference_parse_tagged_corpus


def outcome(call, *args):
    """``("ok", value)``, or what ``call`` raised: its type, message,
    line and column."""
    try:
        return "ok", call(*args)
    except TaggerError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


# "ό" precomposed and decomposed: equal after NFC, distinct as items
WORDS = ("ο", "\u03cc", "\u03bf\u0301", "a/b", "γάτα", ".")
DAMAGED = ("word", "/NN", "word/", "word/BOGUS", "WORD/BOGUS")


@st.composite
def tagged_texts_st(draw):
    """A tagged text of repeated items, blank lines and mixed whitespace,
    with at most one damaged item. "WORD" in a damaged item is a word that
    also occurs with a good tag."""
    items = [w + "/" + t for w in WORDS for t in TAG_NAMES[:3]]
    line = st.lists(st.sampled_from(items), min_size=0, max_size=6)
    lines = draw(st.lists(line, min_size=0, max_size=8))
    damaged = draw(st.none() | st.sampled_from(DAMAGED))
    if damaged is not None:
        lines.append([])
        row = draw(st.integers(0, len(lines) - 1))
        col = draw(st.integers(0, len(lines[row])))
        word = draw(st.sampled_from(WORDS))
        lines[row].insert(col, damaged.replace("WORD", word))
    # "\x1f", "\xa0" and "\u3000" split words but not lines
    seps = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\xa0",
                            "\u3000"])
    return "\n".join(draw(seps).join(items) + draw(st.sampled_from(["", " "]))
                     for items in lines)


# words that start with a combining mark, which NFC must not join to the
# whitespace before them
RAW_WORDS = WORDS + ("\u0301\u03b1", "\u0345", "\u0313\u0301\u03c9")


@st.composite
def raw_texts_st(draw):
    """A raw text of repeated words, "ό" precomposed and decomposed and
    words that start with a combining mark among them, with mixed
    whitespace (U+2000 and U+2001, which NFC maps to U+2002 and U+2003,
    among it), every line break of ``str.splitlines`` and blank lines."""
    seps = st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", "\u3000",
                            "\u2000", "\u2001"])
    lines = draw(st.lists(st.lists(st.sampled_from(RAW_WORDS), max_size=6),
                          max_size=8))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                              "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    return "".join(draw(st.sampled_from(["", " "]))
                   + "".join(word + draw(seps) for word in words)
                   + draw(breaks) for words in lines)


class TestParseTaggedCorpus:
    def test_single_sentence(self, tagset):
        c = parse_tagged_corpus("ο/AT άνθρωπος/NN ./PUNCT", tagset)
        assert len(c.sentences) == 1
        assert [t.tag for t in c.sentences[0]] == ["AT", "NN", "PUNCT"]
        assert [t.word for t in c.sentences[0]] == ["ο", "άνθρωπος", "."]

    def test_last_slash_rule(self, tagset):
        c = parse_tagged_corpus("a/b/NN", tagset)
        tok = c.sentences[0][0]
        assert tok.word == "a/b"
        assert tok.tag == "NN"

    def test_no_slash_is_parse_error(self, tagset):
        with pytest.raises(ParseError) as exc:
            parse_tagged_corpus("word", tagset)
        assert exc.value.line == 1

    def test_empty_word_and_empty_tag(self, tagset):
        with pytest.raises(ParseError):
            parse_tagged_corpus("/NN", tagset)
        with pytest.raises(ParseError):
            parse_tagged_corpus("word/", tagset)

    def test_unknown_tag_names_tag_and_line(self, tagset):
        with pytest.raises(TagsetError) as exc:
            parse_tagged_corpus("ο/AT\nx/BOGUS", tagset)
        assert "BOGUS" in str(exc.value)
        assert exc.value.line == 2

    def test_blank_lines_ignored(self, tagset):
        c = parse_tagged_corpus("\nο/AT\n\n\nx/NN\n", tagset)
        assert len(c.sentences) == 2

    def test_words_are_nfc_normalized(self, tagset):
        # decomposed alpha + tonos -> precomposed
        c = parse_tagged_corpus("ά/NN", tagset)
        assert c.sentences[0][0].word == "ά"

    @given(tagged_texts_st())
    @settings(max_examples=300)
    def test_equals_per_item_reference(self, text):
        tagset = make_tagset()
        got = outcome(parse_tagged_corpus, text, tagset)
        want = outcome(reference_parse_tagged_corpus, text, tagset)
        if want[0] != "ok":
            assert got == want
            return
        assert got[0] == "ok"
        corpus = got[1]
        assert corpus.sentences == want[1].sentences
        # one Token per distinct item, one stripped Token per distinct word
        lines = [line.split() for line in text.splitlines() if line.split()]
        by_item, by_word = {}, {}
        for items, sent, raw in zip(lines, corpus.sentences,
                                    strip_tags(corpus)):
            for item, tok, bare in zip(items, sent, raw):
                assert by_item.setdefault(item, tok) is tok
                assert by_word.setdefault(tok.word, bare) is bare
                assert bare == Token(tok.word)

    def test_bad_item_raises_after_a_good_repeat(self, tagset):
        with pytest.raises(TagsetError) as exc:
            parse_tagged_corpus("x/NN x/NN\n\nx/NN  x/BOGUS", tagset)
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            parse_tagged_corpus("x/NN\nx/NN a x", tagset)
        assert (exc.value.line, exc.value.column) == (2, 6)

    # reference_parse_tagged_corpus locates its errors through ParseError
    # too, so only literal text pins the format
    @pytest.mark.parametrize("text, error, message, line, column", [
        ("x/NNM\nx/NNM a x", ParseError,
         "line 2 col 7: item 'a' has no '/' separator", 2, 7),
        ("x/NN\n\nx/NN x/BOGUS", TagsetError,
         "line 3: tag 'BOGUS' not in tagset", 3, None),
    ], ids=["no-slash", "unknown-tag"])
    def test_error_message_leads_with_its_location(self, text, error, message,
                                                   line, column):
        with pytest.raises(error) as exc:
            parse_tagged_corpus(text, make_tagset(TAG_NAMES + ("NNM",)))
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert (exc.value.line, exc.value.column) == (line, column)


class TestTaggedCorpusCheck:
    @given(sentences_st())
    def test_accepts_every_valid_corpus(self, sentences):
        assert TaggedCorpus(sentences, make_tagset()).sentences == sentences

    @given(sentences_st(), st.lists(
        st.tuples(st.sampled_from(["empty", None, "BOGUS"]),
                  sentences_st(max_sentences=2)), min_size=1, max_size=3))
    def test_first_fault_matches_per_token_reference(self, valid, faults):
        tagset = make_tagset()
        sentences = list(valid)
        for fault, more in faults:
            if fault == "empty":
                sentences.append(())
            else:
                sentences.append(more[0] + (Token("w", fault),) if more
                                 else (Token("w", fault),))
            sentences.extend(more[1:])
        sentences = tuple(sentences)
        got = outcome(TaggedCorpus, sentences, tagset)
        want = outcome(reference_check_tagged_corpus, sentences, tagset)
        assert got[0] != "ok"
        assert got == want


class TestSerializeTaggedCorpus:
    def test_empty_corpus(self, tagset):
        assert serialize_tagged_corpus(TaggedCorpus((), tagset)) == ""

    def test_single_sentence(self, tagset):
        c = TaggedCorpus(((Token("ο", "AT"), Token("γάτα", "NN")),), tagset)
        assert serialize_tagged_corpus(c) == "ο/AT γάτα/NN\n"

    @given(corpora_st())
    def test_round_trip(self, corpus):
        text = serialize_tagged_corpus(corpus)
        again = parse_tagged_corpus(text, corpus.tagset)
        assert again.sentences == corpus.sentences
        assert serialize_tagged_corpus(again) == text


class TestParseRawCorpus:
    def test_basic(self):
        sents = parse_raw_corpus("Η Microsoft ανακοίνωσε")
        assert len(sents) == 1
        assert [t.word for t in sents[0]] == ["Η", "Microsoft", "ανακοίνωσε"]
        assert all(t.tag is None for t in sents[0])

    def test_empty_text(self):
        assert parse_raw_corpus("") == []

    def test_line_order_preserved(self):
        sents = parse_raw_corpus("a b\nc\n")
        assert [[t.word for t in s] for s in sents] == [["a", "b"], ["c"]]

    def test_equals_per_word_normalization(self):
        # "ο\u0301" is "ό" decomposed; both forms repeat, across lines too
        text = "ο\u0301 ό ο\u0301\n\n  α ο\u0301  α\nό\n"
        want = [tuple(Token(unicodedata.normalize("NFC", word))
                      for word in line.split())
                for line in text.splitlines() if line.split()]
        sents = parse_raw_corpus(text)
        assert sents == want
        assert [[t.word for t in s] for s in sents] == [
            ["ό", "ό", "ό"], ["α", "ό", "α"], ["ό"]]
        # one Token per distinct raw word
        assert sents[0][0] is sents[0][2] is sents[1][1]
        assert sents[0][1] is sents[2][0]

    @given(raw_texts_st())
    def test_tokens_wrap_raw_sentences(self, text):
        words = list(raw_sentences(text))
        assert words == [tuple(unicodedata.normalize("NFC", word)
                               for word in line.split())
                         for line in text.splitlines() if line.split()]
        assert all(unicodedata.is_normalized("NFC", word)
                   for sent in words for word in sent)
        sents = parse_raw_corpus(text)
        assert [tuple(tok.word for tok in sent) for sent in sents] == words
        # one Token per distinct normalized word
        by_word = {}
        for tok in (tok for sent in sents for tok in sent):
            assert tok.tag is None
            assert by_word.setdefault(tok.word, tok) is tok


class TestNormalizeAcrossWhitespace:
    def test_no_normalization_crosses_whitespace(self):
        # raw_sentences normalizes a whole text at once; that equals
        # normalizing each word only while no composition, decomposition
        # or reordering reaches across a whitespace character
        nfc = unicodedata.normalize
        chars = list(map(chr, range(sys.maxunicode + 1)))
        spaces = [(w, nfc("NFC", w)) for w in chars if w.isspace()]
        marked = [(c, nfc("NFC", c)) for c in chars
                  if unicodedata.combining(c)
                  or not unicodedata.is_normalized("NFD", c)]
        assert spaces and marked
        for w, nw in spaces:
            for c, nc in marked:
                assert nfc("NFC", w + c) == nw + nc, (w, c)
                assert nfc("NFC", c + w) == nc + nw, (w, c)


class TestLoadTagset:
    CONFIG = ("tag FW\ntag PROP\ntag NNF\n"
              "role FOREIGN FW\nrole PROPER_MASC_SG PROP\n"
              "role NOUN_FEM_SG NNF\n")

    def test_valid_config(self):
        ts = load_tagset(self.CONFIG)
        assert len(ts) == 3
        assert ts.roles["FOREIGN"] == "FW"

    def test_missing_role_named_in_error(self):
        broken = "\n".join(l for l in self.CONFIG.splitlines()
                           if not l.startswith("role FOREIGN"))
        with pytest.raises(TagsetError) as exc:
            load_tagset(broken)
        assert "FOREIGN" in str(exc.value)

    def test_role_bound_to_undeclared_tag(self):
        with pytest.raises(TagsetError):
            load_tagset(self.CONFIG + "role NOUN_FEM_SG NnFeSg\n")

    def test_duplicate_tag(self):
        with pytest.raises(TagsetError):
            load_tagset("tag FW\ntag FW\n" + self.CONFIG)

    def test_error_message_leads_with_its_line(self):
        with pytest.raises(TagsetError) as exc:
            load_tagset("# roles\ntag FW\nrole FOREIGNER FW\n")
        assert str(exc.value) == "line 3: unknown role key 'FOREIGNER'"
        assert (exc.value.line, exc.value.column) == (3, None)

    def test_role_before_its_tag_refused_at_its_line(self):
        # the file is read in order, so a role binds only a tag declared
        # on an earlier line; Tagset, given the same declarations, accepts
        # them: the two checks are different rules
        lines = self.CONFIG.splitlines()
        with pytest.raises(TagsetError) as exc:
            load_tagset("\n".join([lines[3]] + lines[:3] + lines[4:]))
        assert str(exc.value) == (
            "line 1: role FOREIGN bound to undeclared tag 'FW'")
        assert exc.value.line == 1
        ts = Tagset(("FW", "PROP", "NNF"),
                    {"FOREIGN": "FW", "PROPER_MASC_SG": "PROP",
                     "NOUN_FEM_SG": "NNF"})
        assert ts == load_tagset(self.CONFIG)

    @pytest.mark.parametrize("name", ["A/B", "-"])
    def test_invalid_tag_name_leads_with_its_line(self, name):
        with pytest.raises(TagsetError) as exc:
            load_tagset("tag FW\ntag %s\nrole FOREIGN FW\n" % name)
        assert type(exc.value) is TagsetError
        assert str(exc.value) == (
            "line 2: invalid tag name %r (empty, '-', whitespace, '/' or a "
            "lone surrogate)" % name)
        assert exc.value.line == 2

    def test_comments_and_round_trip(self):
        ts = load_tagset("# a comment\n" + self.CONFIG)
        assert load_tagset(serialize_tagset(ts)) == ts

    def test_invalid_tag_name(self):
        with pytest.raises(TagsetError):
            make_tagset(tags=("A/B", "FW", "PROP", "NNF"))


class TestTagsetConstructor:
    """The refusals of a ``Tagset`` built directly, which ``load_tagset``
    makes first with a line of its own."""

    @pytest.mark.parametrize("tags, roles, message", [
        (TAG_NAMES + ("NN",), DEFAULT_ROLES, "duplicate tag 'NN'"),
        (TAG_NAMES, {**DEFAULT_ROLES, "VERB": "VB"},
         "unknown role key 'VERB'"),
        (TAG_NAMES, {**DEFAULT_ROLES, "FOREIGN": "ZZ"},
         "role FOREIGN bound to undeclared tag 'ZZ'"),
        (TAG_NAMES + ("A/B",), DEFAULT_ROLES,
         "invalid tag name 'A/B' (empty, '-', whitespace, '/' or a lone "
         "surrogate)"),
    ], ids=["duplicate-tag", "unknown-role-key", "undeclared-role-tag",
            "invalid-tag-name"])
    def test_refusal(self, tags, roles, message):
        with pytest.raises(TagsetError) as exc:
            Tagset(tags, roles)
        assert type(exc.value) is TagsetError
        assert str(exc.value) == message
        assert (exc.value.line, exc.value.column) == (None, None)


class TestKfoldSplit:
    def _corpus(self, n, tagset):
        return TaggedCorpus(tuple((Token("w%d" % i, "NN"),)
                                  for i in range(n)), tagset)

    def test_even_split(self, tagset):
        plan = kfold_split(self._corpus(20, tagset), 10, 0)
        assert plan.fold_sizes() == [2] * 10

    def test_uneven_split(self, tagset):
        plan = kfold_split(self._corpus(21, tagset), 10, 0)
        sizes = sorted(plan.fold_sizes())
        assert sizes == [2] * 9 + [3]

    def test_too_few_sentences(self, tagset):
        with pytest.raises(TaggerError):
            kfold_split(self._corpus(3, tagset), 4, 0)

    def test_deterministic(self, tagset):
        c = self._corpus(17, tagset)
        assert kfold_split(c, 5, 3) == kfold_split(c, 5, 3)

    @given(st.integers(2, 10), st.integers(0, 50), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_invariants(self, k, extra, seed):
        n = k + extra
        plan = kfold_split(self._corpus(n, make_tagset()), k, seed)
        sizes = plan.fold_sizes()
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        covered = [i for f in range(k) for i in plan.fold_indices(f)]
        assert sorted(covered) == list(range(n))


class TestTruncateToWords:
    def _corpus(self, lengths, tagset):
        return TaggedCorpus(
            tuple(tuple(Token("w", "NN") for _ in range(n)) for n in lengths),
            tagset)

    def test_prefix_sum(self, tagset):
        out = truncate_to_words(self._corpus([5, 5, 5], tagset), 10)
        assert len(out.sentences) == 2
        assert out.word_count == 10

    def test_whole_corpus(self, tagset):
        c = self._corpus([3, 4], tagset)
        assert truncate_to_words(c, 100).sentences == c.sentences

    def test_first_sentence_never_split(self, tagset):
        out = truncate_to_words(self._corpus([5, 2], tagset), 1)
        assert len(out.sentences) == 1
        assert out.word_count == 5

    def test_bad_n_words(self, tagset):
        with pytest.raises(TaggerError):
            truncate_to_words(self._corpus([2], tagset), 0)

    @given(corpora_st(max_sentences=10), st.integers(1, 40))
    def test_bound_property(self, corpus, n_words):
        out = truncate_to_words(corpus, n_words)
        assert out.sentences == corpus.sentences[:len(out.sentences)]
        if len(out.sentences) > 1:
            assert out.word_count <= n_words


class TestFoldPlan:
    def test_rejects_k_below_2(self):
        with pytest.raises(TaggerError):
            FoldPlan(1, (0,))

    def test_rejects_unbalanced(self):
        with pytest.raises(TaggerError):
            FoldPlan(2, (0, 0, 0, 1))
