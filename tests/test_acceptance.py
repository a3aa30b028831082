"""Acceptance suite: one test per acceptance criterion, each emitting a
single ``criterion N ...: PASS/FAIL`` line (visible with ``pytest -s``).

The expensive synthetic-corpus runs (10-fold cross-validation, the learning
curve) are computed once per module and shared across criteria.
"""

import random
import tempfile
import time

import pytest

from tbltagger.corpus import (TaggedCorpus, Token, parse_tagged_corpus,
                              serialize_tagged_corpus, truncate_to_words)
from tbltagger.evaluate import (SynthSpec, accuracy, cross_validate,
                                generate_synthetic_corpus, learning_curve,
                                strip_tags, _summarize, FoldResult)
from tbltagger.corpus import kfold_split, serialize_tagset
from tbltagger.learner import (TrainConfig, initial_contextual_state,
                               learn_lexical_rules, learn_contextual_rules,
                               split_for_unknown_training, token_errors,
                               unknown_types)
from tbltagger.lexicon import (Lexicon, build_lexicon, default_greek_chain,
                               initial_tag, parse_lexicon, serialize_lexicon)
from tbltagger.rules import (CONTEXTUAL_TEMPLATES, ContextualRule, LexicalRule,
                             TaggerModel, apply_contextual_rule, load_model,
                             parse_rules, save_model, serialize_rules,
                             tag_corpus)
from tbltagger import cli

from conftest import BIG_SPEC, make_tagset
from oracles import (apply_lexical_rule_to_states, build_tag_index,
                     dynamic_contextual_score, most_frequent_tag_baseline,
                     score_lexical_candidate, select_best_rule, type_states,
                     weighted_type_errors)


def report(num, label, ok, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("criterion %d %s: %s%s" % (num, label, "PASS" if ok else "FAIL",
                                     suffix))
    assert ok, "criterion %d %s%s" % (num, label, suffix)


# ---------------------------------------------------------------------------
# shared expensive fixtures

CURVE_SIZES = [2000, 5000, 10000, 20000]


@pytest.fixture(scope="module")
def big_cv(big_synth_corpus):
    start = time.monotonic()
    rep = cross_validate(big_synth_corpus, k=10)
    return rep, time.monotonic() - start


@pytest.fixture(scope="module")
def big_baseline(big_synth_corpus):
    return most_frequent_tag_baseline(big_synth_corpus, k=10)


@pytest.fixture(scope="module")
def big_curve(big_synth_corpus):
    return learning_curve(big_synth_corpus, CURVE_SIZES, k=10)


# ---------------------------------------------------------------------------
# greedy-step oracle: independent exhaustive candidate spaces

ORACLE_CONFIG = TrainConfig(score_threshold=2)


def oracle_spec(seed):
    return SynthSpec(
        n_stems=6 + seed % 5,
        suffix_paradigms=(("ος", "NNM"), ("η", "NNF"), ("ει", "VRB")),
        ambiguity_rate=0.2 + 0.04 * (seed % 5),
        context_rule_strength=1.0,
        n_sentences=20,
        sentence_len_range=(4, 9),
        seed=seed,
    )


def _affixes(words, max_len):
    out = set()
    for w in words:
        for k in range(1, min(max_len, len(w)) + 1):
            out.add(w[:k])
            out.add(w[-k:])
    return out


def exhaustive_lexical_candidates(states, lexicon, max_affix_len):
    """Every lexical rule that could possibly score net > 0.

    Rules left out can only score (0, 0) or negative: an affix argument that
    is not an affix of any pending word type (or, for the ADD templates, of
    any lexicon word) matches nothing, and a (from_tag, to_tag) pair not
    read off some currently mis-tagged type cannot fix anything. Dropping
    them cannot change a maximum at or above the threshold (>= 1).
    """
    own = _affixes(states, max_affix_len)
    lex = _affixes(lexicon.entries, max_affix_len)
    chars = {c for w in states for c in w}
    pairs = set()
    for st in states.values():
        if st.current != st.gold:
            pairs.add((None, st.gold))
            pairs.add((st.current, st.gold))
    candidates = set()
    for from_tag, to_tag in pairs:
        if from_tag == to_tag:
            continue
        for template, args in (("HASSUF", own), ("HASPREF", own),
                               ("DELETESUF", own), ("DELETEPREF", own),
                               ("ADDSUF", lex), ("ADDPREF", lex),
                               ("HASCHAR", chars)):
            for arg in args:
                if template == "HASCHAR" and len(arg) != 1:
                    continue
                candidates.add(LexicalRule(template, arg, from_tag, to_tag))
    return candidates


def exhaustive_contextual_candidates(state, gold):
    """Every contextual rule that could possibly score net > 0.

    Application sites always carry from_tag in the pre-application state, so
    a rule with positive net must pair the current tag of some error site
    with that site's gold tag; argument tags beyond those occurring in the
    state or the gold, and argument words beyond the corpus vocabulary,
    match nothing.
    """
    tags = set()
    words = set()
    pairs = set()
    for (sent_words, sent_tags), gtags in zip(state, gold):
        words.update(sent_words)
        tags.update(sent_tags)
        tags.update(gtags)
        for t, g in zip(sent_tags, gtags):
            if t != g:
                pairs.add((t, g))
    tags = sorted(tags)
    candidates = set()
    for from_tag, to_tag in pairs:
        for template, arity in CONTEXTUAL_TEMPLATES.items():
            pool = words if template in ("PREVWD", "NEXTWD") else tags
            if arity == 1:
                for a in pool:
                    candidates.add(ContextualRule(template, (a,), from_tag,
                                                  to_tag))
            else:
                for a in pool:
                    for b in pool:
                        candidates.add(ContextualRule(template, (a, b),
                                                      from_tag, to_tag))
    return candidates


def replay_training(corpus, config):
    """Re-derive the greedy trajectory of both phases, checking each
    accepted rule against the exhaustive oracle and recording error counts.
    """
    chain = default_greek_chain()
    out = {"lexical": [], "contextual": []}

    lexicon, lexical_rules = learn_lexical_rules(corpus, chain, config)
    lex_part, rule_part = split_for_unknown_training(
        corpus, config.lexicon_split_fraction, config.seed)
    guess = build_lexicon(lex_part)
    states = type_states(*unknown_types(rule_part, guess, chain))
    for rule in lexical_rules:
        oracle = select_best_rule(
            exhaustive_lexical_candidates(states, guess, config.max_affix_len),
            lambda r: score_lexical_candidate(r, states, guess),
            config.score_threshold)
        score = score_lexical_candidate(rule, states, guess)
        before = weighted_type_errors(states)
        states = apply_lexical_rule_to_states(rule, states, guess)
        out["lexical"].append({
            "rule": rule, "score": score, "oracle": oracle,
            "before": before, "after": weighted_type_errors(states)})
    out["lexical_exhausted"] = select_best_rule(
        exhaustive_lexical_candidates(states, guess, config.max_affix_len),
        lambda r: score_lexical_candidate(r, states, guess),
        config.score_threshold) is None

    contextual_rules = learn_contextual_rules(corpus, lexicon, lexical_rules,
                                              chain, config)
    state, gold = initial_contextual_state(corpus, lexicon, lexical_rules,
                                           chain)
    for rule in contextual_rules:
        index = build_tag_index(state)
        oracle = select_best_rule(
            exhaustive_contextual_candidates(state, gold),
            lambda r: dynamic_contextual_score(r, state, gold, index),
            config.score_threshold)
        score = dynamic_contextual_score(rule, state, gold, index)
        before = token_errors(state, gold)
        for words, tags in state:
            apply_contextual_rule(rule, words, tags)
        out["contextual"].append({
            "rule": rule, "score": score, "oracle": oracle,
            "before": before, "after": token_errors(state, gold)})
    index = build_tag_index(state)
    out["contextual_exhausted"] = select_best_rule(
        exhaustive_contextual_candidates(state, gold),
        lambda r: dynamic_contextual_score(r, state, gold, index),
        config.score_threshold) is None

    model = TaggerModel(corpus.tagset, lexicon, chain, lexical_rules,
                        contextual_rules)
    out["model"] = model
    out["corpus"] = corpus
    return out


@pytest.fixture(scope="module")
def oracle_runs():
    start = time.monotonic()
    runs = []
    for seed in range(20):
        corpus = generate_synthetic_corpus(oracle_spec(seed))
        assert corpus.word_count <= 200
        runs.append(replay_training(corpus, ORACLE_CONFIG))
    return runs, time.monotonic() - start


# ---------------------------------------------------------------------------
# criteria

class TestCriterion1GreedyOracleEquivalence:
    def test_every_accepted_rule_is_the_exhaustive_argmax(self, oracle_runs):
        runs, elapsed = oracle_runs
        steps = 0
        ok = True
        for run in runs:
            for phase in ("lexical", "contextual"):
                for step in run[phase]:
                    steps += 1
                    ok = ok and step["oracle"] is not None
                    ok = ok and step["oracle"] == (step["rule"], step["score"])
            ok = ok and run["lexical_exhausted"]
            ok = ok and run["contextual_exhausted"]
        ok = ok and steps > 0 and elapsed <= 120.0
        report(1, "greedy-step optimality vs exhaustive oracle", ok,
               "%d corpora, %d accepted rules, %.1fs" % (len(runs), steps,
                                                         elapsed))


class TestCriterion2MonotoneErrorReduction:
    def test_errors_strictly_decrease_and_beat_baseline(self, oracle_runs):
        runs, _ = oracle_runs
        ok = True
        for run in runs:
            for step in run["lexical"]:
                drop = step["before"] - step["after"]
                ok = ok and drop == step["score"].net
                ok = ok and drop >= ORACLE_CONFIG.score_threshold
            for step in run["contextual"]:
                drop = step["before"] - step["after"]
                ok = ok and drop == step["score"].net
                ok = ok and drop >= ORACLE_CONFIG.score_threshold
            model = run["model"]
            corpus = run["corpus"]
            trained_acc, _ = accuracy(tag_corpus(strip_tags(corpus), model),
                                      corpus)
            baseline = TaggerModel(corpus.tagset, model.lexicon,
                                   model.initial_chain, (), ())
            base_acc, _ = accuracy(tag_corpus(strip_tags(corpus), baseline),
                                   corpus)
            ok = ok and trained_acc >= base_acc
        report(2, "monotone error reduction", ok,
               "%d training runs" % len(runs))


class TestCriterion3BaselineEquivalence:
    def test_empty_rules_equal_initial_tagging(self, big_synth_corpus):
        chain = default_greek_chain()
        fixtures = [generate_synthetic_corpus(oracle_spec(s))
                    for s in (0, 3, 7)]
        fixtures.append(truncate_to_words(big_synth_corpus, 3000))
        ok = True
        for corpus in fixtures:
            half, other = split_for_unknown_training(corpus, 0.5, 0)
            lexicon = build_lexicon(half)
            model = TaggerModel(corpus.tagset, lexicon, chain, (), ())
            raw = strip_tags(corpus)
            piped = serialize_tagged_corpus(tag_corpus(raw, model))
            manual = serialize_tagged_corpus(TaggedCorpus(tuple(
                tuple(Token(t.word,
                            initial_tag(t.word, lexicon, chain,
                                        corpus.tagset)) for t in sent)
                for sent in raw), corpus.tagset))
            ok = ok and piped == manual
        report(3, "empty rule lists reduce to initial tagging", ok,
               "%d fixtures, byte-identical output" % len(fixtures))


class TestCriterion4Determinism:
    def test_cli_runs_are_byte_identical(self, tmp_path):
        corpus = generate_synthetic_corpus(
            SynthSpec(n_stems=12, n_sentences=60, seed=5))
        corpus_path = tmp_path / "corpus.txt"
        tagset_path = tmp_path / "tagset.txt"
        corpus_path.write_text(serialize_tagged_corpus(corpus),
                               encoding="utf-8")
        tagset_path.write_text(serialize_tagset(corpus.tagset),
                               encoding="utf-8")
        base = ["--corpus", str(corpus_path), "--tagset", str(tagset_path)]

        models = []
        for name in ("m1", "m2"):
            code = cli.main(["train"] + base + ["--out",
                                                str(tmp_path / name)])
            assert code == cli.EXIT_OK
            models.append({f: (tmp_path / name / f).read_bytes()
                           for f in ("TAGSET", "LEXICON", "LEXRULES",
                                     "CTXRULES", "MANIFEST")})
        csvs = []
        for name in ("c1.csv", "c2.csv"):
            code = cli.main(["crossval"] + base +
                            ["--k", "5", "--out", str(tmp_path / name)])
            assert code == cli.EXIT_OK
            csvs.append((tmp_path / name).read_bytes())
        ok = models[0] == models[1] and csvs[0] == csvs[1]
        report(4, "byte-identical repeated train/crossval runs", ok)


class TestCriterion5ScriptDefaultRule:
    LATIN = ("Microsoft", "Internet", "manager", "email", "Windows",
             "online", "web", "Server", "fax", "Sheffield")
    GREEK_CAPITAL = ("Άννα", "Έλενα", "Ήβη", "Ίκαρος", "Όλγα",
                     "Ύδρα", "Ώρα", "Ϊάνος", "Ϋλη", "Γιώργος")
    OTHER = ("εταιρεία", "άνθρωπος", "πόλη", "ψάρι", "ώρα",
             "γάτα", "1999", ".", ";", "-")

    def test_thirty_word_fixture(self):
        tagset = make_tagset()
        chain = default_greek_chain()
        lexicon = Lexicon({})
        ok = True
        for words, role in ((self.LATIN, "FOREIGN"),
                            (self.GREEK_CAPITAL, "PROPER_MASC_SG"),
                            (self.OTHER, "NOUN_FEM_SG")):
            assert len(words) == 10
            for word in words:
                got = initial_tag(word, lexicon, chain, tagset)
                ok = ok and got == tagset.roles[role]
        report(5, "script-based default rule on 30-word fixture", ok)


class TestCriterion6SyntheticAccuracy:
    def test_cross_validated_accuracy(self, big_synth_corpus, big_cv,
                                      big_baseline):
        rep, elapsed = big_cv
        ok = big_synth_corpus.word_count >= 20000
        ok = ok and BIG_SPEC.n_stems == 200
        ok = ok and len(BIG_SPEC.suffix_paradigms) == 5
        ok = ok and BIG_SPEC.ambiguity_rate == 0.3
        ok = ok and BIG_SPEC.context_rule_strength == 1.0
        ok = ok and rep.mean_accuracy >= 0.95
        ok = ok and rep.mean_accuracy - big_baseline >= 0.02
        ok = ok and elapsed <= 300.0
        report(6, "synthetic 10-fold accuracy", ok,
               "mean=%.4f baseline=%.4f tokens=%d %.0fs"
               % (rep.mean_accuracy, big_baseline,
                  big_synth_corpus.word_count, elapsed))


class TestCriterion7CurveShape:
    def test_accuracy_and_rule_counts_grow(self, big_curve):
        accs = [row.report.mean_accuracy for row in big_curve]
        totals = [row.report.mean_lexical_rules +
                  row.report.mean_contextual_rules for row in big_curve]
        ok = len(big_curve) == 4
        ok = ok and accs[-1] >= accs[0]
        # four comparisons: the three adjacent size pairs plus the
        # smallest-to-largest endpoints; at least three must be
        # non-decreasing
        comparisons = list(zip(totals, totals[1:])) + [(totals[0], totals[-1])]
        grown = sum(1 for a, b in comparisons if b >= a)
        ok = ok and grown >= 3
        report(7, "learning-curve shape", ok,
               "acc %s total rules %s, %d/4 comparisons non-decreasing"
               % (["%.4f" % a for a in accs],
                  ["%.1f" % t for t in totals], grown))


class TestCriterion8CvMechanics:
    def test_fold_invariants_and_report_statistics(self):
        rnd = random.Random(8)
        ok = True
        for _ in range(100):
            k = rnd.randint(2, 10)
            n = rnd.randint(k, k + 60)
            corpus = TaggedCorpus(tuple((Token("w%d" % i, "NN"),)
                                        for i in range(n)), make_tagset())
            plan = kfold_split(corpus, k, rnd.getrandbits(32))
            sizes = plan.fold_sizes()
            ok = ok and sum(sizes) == n
            ok = ok and max(sizes) - min(sizes) <= 1
            covered = sorted(i for f in range(k)
                             for i in plan.fold_indices(f))
            ok = ok and covered == list(range(n))

            accs = [rnd.random() for _ in range(k)]
            folds = [FoldResult(i, a, rnd.randint(0, 9), rnd.randint(0, 9),
                                10) for i, a in enumerate(accs)]
            rep = _summarize(folds)
            mean = sum(accs) / k
            var = sum((a - mean) ** 2 for a in accs) / (k - 1)
            ok = ok and abs(rep.mean_accuracy - mean) <= 1e-12
            ok = ok and abs(rep.stddev_accuracy - var ** 0.5) <= 1e-12
        report(8, "cross-validation mechanics", ok,
               "100 random corpora, k in [2,10]")


class TestCriterion9RoundTrips:
    WORDS = ("γάτα", "σκύλος", "a/b", "x:1", "#λέξη", "Άννα", "ο", ".",
             "μέρα-νύχτα", "Microsoft")
    TAGS = ("AT", "NN", "VB", "PUNCT", "FW", "PROP", "NNF")

    def _random_corpus(self, rnd):
        sents = tuple(
            tuple(Token(rnd.choice(self.WORDS), rnd.choice(self.TAGS))
                  for _ in range(rnd.randint(1, 6)))
            for _ in range(rnd.randint(1, 6)))
        return TaggedCorpus(sents, make_tagset())

    def _random_rules(self, rnd):
        lexical = []
        for _ in range(rnd.randint(0, 5)):
            template = rnd.choice(("HASSUF", "HASPREF", "DELETESUF",
                                   "DELETEPREF", "ADDSUF", "ADDPREF",
                                   "HASCHAR"))
            arg = "".join(rnd.choice("αβγδes-") for _ in
                          range(1 if template == "HASCHAR"
                                else rnd.randint(1, 4)))
            from_tag = rnd.choice((None,) + self.TAGS)
            to_tag = rnd.choice([t for t in self.TAGS if t != from_tag])
            lexical.append(LexicalRule(template, arg, from_tag, to_tag))
        contextual = []
        for _ in range(rnd.randint(0, 5)):
            template = rnd.choice(sorted(CONTEXTUAL_TEMPLATES))
            pool = (self.WORDS if template in ("PREVWD", "NEXTWD")
                    else self.TAGS)
            args = tuple(rnd.choice(pool)
                         for _ in range(CONTEXTUAL_TEMPLATES[template]))
            from_tag = rnd.choice(self.TAGS)
            to_tag = rnd.choice([t for t in self.TAGS if t != from_tag])
            contextual.append(ContextualRule(template, args, from_tag, to_tag))
        return tuple(lexical), tuple(contextual)

    def test_serialization_round_trips(self):
        rnd = random.Random(9)
        tagset = make_tagset()
        ok = True
        for case in range(40):
            corpus = self._random_corpus(rnd)
            text = serialize_tagged_corpus(corpus)
            ok = ok and parse_tagged_corpus(text, tagset).sentences == \
                corpus.sentences

            lexicon = build_lexicon(corpus)
            ok = ok and parse_lexicon(serialize_lexicon(lexicon),
                                      tagset) == lexicon

            lexical, contextual = self._random_rules(rnd)
            lex2, ctx2 = parse_rules(serialize_rules(lexical, contextual),
                                     tagset)
            ok = ok and (lex2, ctx2) == (lexical, contextual)

            if case < 8:
                model = TaggerModel(tagset, lexicon, default_greek_chain(),
                                    lexical, contextual)
                with tempfile.TemporaryDirectory() as tmp:
                    save_model(model, tmp + "/model")
                    loaded = load_model(tmp + "/model")
                ok = ok and loaded.tagset == model.tagset
                ok = ok and loaded.lexicon == model.lexicon
                ok = ok and loaded.lexical_rules == model.lexical_rules
                ok = ok and loaded.contextual_rules == model.contextual_rules
        report(9, "serialization round-trips", ok,
               "corpus, lexicon, rule files, model directory")
