"""Evaluation harness: accuracy, cross-validation, curves, synthetic data,
CSV rendering."""

import csv
import hashlib
import io
import math
import statistics
from collections import Counter

import pytest

from tbltagger import evaluate
from tbltagger.corpus import (AlignmentError, TaggedCorpus, TaggerError,
                              Token, kfold_split, select_sentences,
                              serialize_tagged_corpus, serialize_tagset)
from tbltagger.evaluate import (CurveRow, EvalReport, FoldResult, SynthSpec,
                                accuracy, count_hits, cross_validate,
                                generate_synthetic_corpus, learning_curve,
                                render_confusion_csv, render_folds_csv,
                                render_report_csv, strip_tags, synth_tagset,
                                _summarize)
from tbltagger.learner import TrainConfig, train_model
from tbltagger.lexicon import build_lexicon, default_greek_chain
from tbltagger.rules import ContextualRule, TaggerModel, tag_corpus

from oracles import most_frequent_tag_baseline, synthetic_oracle_tags
from test_learner import mini_spec


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def retag(corpus, mapper):
    sents = tuple(
        tuple(Token(t.word, mapper(t.tag)) for t in sent)
        for sent in corpus.sentences)
    return TaggedCorpus(sents, corpus.tagset)


class TestAccuracy:
    def test_identity(self, tiny_corpus):
        acc, confusion = accuracy(tiny_corpus, tiny_corpus)
        assert acc == 1.0
        assert sum(confusion.values()) == tiny_corpus.word_count

    def test_all_wrong(self, tiny_corpus):
        flipped = retag(tiny_corpus, lambda t: "FW" if t != "FW" else "NN")
        acc, _ = accuracy(flipped, tiny_corpus)
        assert acc == 0.0

    def test_ratio(self, tagset):
        gold = TaggedCorpus(
            (tuple(Token("w%d" % i, "NN") for i in range(20)),), tagset)
        predicted = retag(gold, lambda t: t)
        sent = list(predicted.sentences[0])
        sent[0] = Token("w0", "VB")
        predicted = TaggedCorpus((tuple(sent),), tagset)
        acc, confusion = accuracy(predicted, gold)
        assert acc == 0.95
        assert confusion[("NN", "VB")] == 1
        assert confusion[("NN", "NN")] == 19

    def test_word_mismatch_names_divergence(self, tagset):
        a = TaggedCorpus(((Token("x", "NN"), Token("y", "NN")),), tagset)
        b = TaggedCorpus(((Token("x", "NN"), Token("z", "NN")),), tagset)
        with pytest.raises(AlignmentError) as exc:
            accuracy(a, b)
        assert "token 1" in str(exc.value)

    def test_length_mismatch(self, tagset):
        a = TaggedCorpus(((Token("x", "NN"),),), tagset)
        b = TaggedCorpus(((Token("x", "NN"), Token("y", "NN")),), tagset)
        with pytest.raises(AlignmentError):
            accuracy(a, b)

    def test_sentence_count_mismatch(self, tagset):
        a = TaggedCorpus(((Token("x", "NN"),),), tagset)
        b = TaggedCorpus((), tagset)
        with pytest.raises(AlignmentError):
            accuracy(a, b)

    def test_two_empty_corpora_refused(self, tagset):
        empty = TaggedCorpus((), tagset)
        with pytest.raises(AlignmentError) as exc:
            accuracy(empty, empty)
        assert type(exc.value) is AlignmentError
        assert str(exc.value) == "cannot compute accuracy on an empty corpus"


class TestStripTags:
    def test_strips(self, tiny_corpus):
        raw = strip_tags(tiny_corpus)
        assert all(t.tag is None for s in raw for t in s)
        assert [[t.word for t in s] for s in raw] == \
            [[t.word for t in s] for s in tiny_corpus.sentences]


class TestFoldResult:
    @pytest.mark.parametrize("acc", [-0.1, 1.5, float("nan")])
    def test_accuracy_outside_unit_interval_refused(self, acc):
        with pytest.raises(TaggerError) as exc:
            FoldResult(0, acc, 0, 0, 10)
        assert type(exc.value) is TaggerError
        assert str(exc.value) == "accuracy out of [0, 1]"


class TestSummarize:
    def test_constant_folds(self):
        folds = [FoldResult(i, 1.0, 2, 1, 10) for i in range(10)]
        report = _summarize(folds)
        assert report.mean_accuracy == 1.0
        assert report.stddev_accuracy == 0.0

    def test_two_point_stddev(self):
        folds = [FoldResult(0, 0.9, 0, 0, 10), FoldResult(1, 1.0, 0, 0, 10)]
        report = _summarize(folds)
        assert report.mean_accuracy == pytest.approx(0.95)
        assert report.stddev_accuracy == pytest.approx(0.0707, abs=1e-4)

    def test_sorted_by_fold_id_regardless_of_input_order(self):
        folds = [FoldResult(1, 0.5, 0, 0, 10), FoldResult(0, 1.0, 0, 0, 10)]
        report = _summarize(folds)
        assert [f.fold_id for f in report.folds] == [0, 1]

    def test_matches_independent_recomputation(self):
        accs = [0.913, 0.87, 0.99, 0.75, 0.9031]
        folds = [FoldResult(i, a, i, 2 * i, 50) for i, a in enumerate(accs)]
        report = _summarize(folds)
        mean = sum(accs) / len(accs)
        var = sum((a - mean) ** 2 for a in accs) / (len(accs) - 1)
        assert abs(report.mean_accuracy - mean) < 1e-12
        assert abs(report.stddev_accuracy - math.sqrt(var)) < 1e-12


@pytest.fixture(scope="module")
def cv_corpus():
    return generate_synthetic_corpus(mini_spec(1, n_sentences=36))


@pytest.fixture(scope="module")
def curve_corpus():
    return generate_synthetic_corpus(mini_spec(2, n_sentences=60))


class TestCrossValidate:
    @pytest.fixture
    def corpus(self, cv_corpus):
        return cv_corpus

    def test_report_shape(self, corpus):
        report = cross_validate(corpus, k=3)
        assert len(report.folds) == 3
        assert report.mean_accuracy == pytest.approx(
            statistics.mean(f.accuracy for f in report.folds))
        assert sum(f.test_tokens for f in report.folds) == corpus.word_count

    def test_deterministic(self, corpus):
        a = cross_validate(corpus, k=3, config=TrainConfig(seed=5))
        b = cross_validate(corpus, k=3, config=TrainConfig(seed=5))
        assert a == b

    def test_parallel_folds_match_sequential(self, corpus):
        seq = cross_validate(corpus, k=3, jobs=1)
        par = cross_validate(corpus, k=3, jobs=2)
        assert seq == par

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (100_000, 3)])
    def test_pool_holds_at_most_one_worker_per_fold(self, corpus, monkeypatch,
                                                    jobs, workers):
        # A fork pool starts all its workers at the first submit, so the
        # pool must be capped before it is built; this one runs in-process.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(evaluate, "_process_pool", InProcessPool)
        report = cross_validate(corpus, k=3, jobs=jobs)
        assert sizes == [workers]
        assert report == cross_validate(corpus, k=3)

    def test_too_small(self, tagset):
        c = TaggedCorpus(((Token("a", "NN"),),), tagset)
        with pytest.raises(TaggerError):
            cross_validate(c, k=2)

    def test_folds_score_as_the_token_pipeline(self, corpus):
        # each fold's figures, recomputed from its test fold tagged as a
        # ``Token`` corpus and compared token by token
        config = TrainConfig(seed=2)
        plan = kfold_split(corpus, 3, config.seed)
        report = cross_validate(corpus, k=3, config=config)
        unknown_seen = 0
        for fold in report.folds:
            test = select_sentences(corpus, plan.fold_indices(fold.fold_id))
            model = train_model(select_sentences(corpus, [
                i for i, f in enumerate(plan.assignments)
                if f != fold.fold_id]), config)
            predicted = tag_corpus(strip_tags(test), model)
            hits = {True: [], False: []}
            for ps, gs in zip(predicted.sentences, test.sentences):
                for pt, gt in zip(ps, gs):
                    hits[gt.word in model.lexicon].append(pt.tag == gt.tag)
            unknown_seen += len(hits[False])
            assert fold.accuracy == accuracy(predicted, test)[0]
            assert fold.test_tokens == test.word_count
            for known, got in ((True, fold.known_accuracy),
                               (False, fold.unknown_accuracy)):
                assert got == (sum(hits[known]) / len(hits[known])
                               if hits[known] else 1.0)
        assert unknown_seen


class TestCountHits:
    @pytest.fixture
    def model(self, tiny_corpus):
        return TaggerModel(tiny_corpus.tagset, build_lexicon(tiny_corpus),
                           default_greek_chain(), (), (ContextualRule(
                               "PREVTAG", ("AT",), "NN", "VB"),))

    def test_counts_as_accuracy_does(self, tiny_corpus, model):
        gold = TaggedCorpus(tiny_corpus.sentences + ((
            Token("Άννα", "PROP"), Token("γάτα", "NN"), Token("xyz", "NN")),),
            tiny_corpus.tagset)
        confusion = Counter()
        hits, tokens, known_hits, known_tokens = count_hits(
            model.tagger, gold.sentences, known={"γάτα", "xyz"},
            confusion=confusion)
        acc, want = accuracy(tag_corpus(strip_tags(gold), model), gold)
        assert (hits / tokens, confusion) == (acc, want)
        assert tokens == gold.word_count == 11
        # γάτα is tagged VB after ο (gold NN), else NN (gold NN, VB, NN);
        # xyz is tagged FW (gold NN)
        assert (known_hits, known_tokens) == (2, 5)
        assert count_hits(model.tagger, gold.sentences) == \
            (hits, tokens, 0, 0)

    def test_empty_corpus_refused(self, model):
        with pytest.raises(AlignmentError, match="empty corpus"):
            count_hits(model.tagger, ())


class TestLearningCurve:
    @pytest.fixture
    def corpus(self, curve_corpus):
        return curve_corpus

    def test_single_size_equals_direct_cross_validation(self, corpus):
        rows = learning_curve(corpus, [corpus.word_count], k=3)
        assert len(rows) == 1
        assert rows[0].corpus_words == corpus.word_count
        assert rows[0].report == cross_validate(corpus, k=3)

    def test_sizes_ascending_in_output(self, corpus):
        half = corpus.word_count // 2
        rows = learning_curve(corpus, [half, corpus.word_count], k=3)
        assert [r.corpus_words for r in rows] == \
            sorted(r.corpus_words for r in rows)

    def test_rejects_descending_sizes(self, corpus):
        with pytest.raises(TaggerError):
            learning_curve(corpus, [200, 100], k=3)

    def test_rejects_sizes_too_small_for_k(self, corpus):
        with pytest.raises(TaggerError):
            learning_curve(corpus, [5], k=3)


class TestSynthSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n_stems": 0},
        {"suffix_paradigms": ()},
        {"suffix_paradigms": (("", "NN"),)},
        {"suffix_paradigms": (("α", "NN"), ("η", "NN"))},  # duplicate tag
        {"ambiguity_rate": 1.5},
        {"context_rule_strength": -0.1},
        {"sentence_len_range": (0, 4)},
        {"sentence_len_range": (5, 4)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(TaggerError):
            SynthSpec(**kwargs)

    def test_tagset_has_required_roles(self):
        ts = synth_tagset(SynthSpec())
        for role in ("FOREIGN", "PROPER_MASC_SG", "NOUN_FEM_SG"):
            assert ts.roles[role] in ts


class TestGenerateSyntheticCorpus:
    def test_deterministic(self):
        spec = mini_spec(4)
        a = generate_synthetic_corpus(spec)
        b = generate_synthetic_corpus(spec)
        assert a.sentences == b.sentences

    @pytest.mark.parametrize("spec, corpus_sha256, tagset_sha256", [
        (SynthSpec(n_stems=20, ambiguity_rate=0.5, context_rule_strength=0.7,
                   n_sentences=40, seed=3),
         "d8778238392ff6de0c98a219eb58ee66f07f1ee30423372e044128658c392098",
         "ef8d19f1dfaba4426a0ba4ab2b9ad7026d3e090ebfc899e973aca2decbd79570"),
        (SynthSpec(n_stems=15, ambiguity_rate=0.0, n_sentences=40, seed=11,
                   suffix_paradigms=(("η", "NNF"), ("ος", "NNM"),
                                     ("ιος", "ADJ"), ("α", "NFP"),
                                     ("ες", "NFPL"), ("ιες", "APL"))),
         "f6143c1c5ca8758515aff36a1c7792b32a195331bc6b7f043b0cea59f5ebfef3",
         "05269ced2384637c7c4c615cebfe88757d956e0ee1698467a08d4d617cab6077"),
        (SynthSpec(n_stems=10, n_sentences=15, sentence_len_range=(20, 60),
                   seed=5),
         "80fd5f3b44473a34192cb5938896f7361719580557399da0de0cd40e1e9e98f5",
         "ef8d19f1dfaba4426a0ba4ab2b9ad7026d3e090ebfc899e973aca2decbd79570"),
    ], ids=["ambiguous", "overlapping-suffixes", "long-sentences"])
    def test_output_is_pinned(self, spec, corpus_sha256, tagset_sha256):
        # the random stream behind every synthetic corpus, bench workload
        # and recorded model digest
        corpus = generate_synthetic_corpus(spec)
        assert sha256(serialize_tagged_corpus(corpus)) == corpus_sha256
        assert sha256(serialize_tagset(corpus.tagset)) == tagset_sha256

    def test_equal_tokens_are_one_object(self):
        corpus = generate_synthetic_corpus(mini_spec(4, n_sentences=60))
        tokens = [tok for sent in corpus.sentences for tok in sent]
        assert len({id(tok) for tok in tokens}) == \
            len({(tok.word, tok.tag) for tok in tokens}) < len(tokens)

    def test_zero_ambiguity_gives_unambiguous_types(self):
        corpus = generate_synthetic_corpus(
            mini_spec(5, ambiguity_rate=0.0, n_sentences=80))
        tags_by_word = {}
        for sent in corpus.sentences:
            for tok in sent:
                tags_by_word.setdefault(tok.word, set()).add(tok.tag)
        assert all(len(tags) == 1 for tags in tags_by_word.values())

    def test_oracle_is_nearly_exact_at_full_strength(self):
        spec = mini_spec(6, n_sentences=120, context_rule_strength=1.0)
        corpus = generate_synthetic_corpus(spec)
        oracle = synthetic_oracle_tags(corpus.sentences, spec)
        acc, _ = accuracy(oracle, corpus)
        assert acc >= 0.99

    def test_tags_follow_suffix_paradigms(self):
        spec = mini_spec(7, ambiguity_rate=0.0)
        corpus = generate_synthetic_corpus(spec)
        suffixes = sorted(spec.suffix_paradigms, key=lambda p: -len(p[0]))
        special = {"FW", "PROP"} | {t for _, t, _ in
                                    (("το", "DET", 0), ("ένα", "DTI", 0),
                                     ("κάθε", "DTQ", 0))}
        for sent in corpus.sentences:
            for tok in sent:
                if tok.tag in special:
                    continue
                expected = next(t for s, t in suffixes
                                if tok.word.endswith(s))
                assert tok.tag == expected


class TestBaseline:
    def test_learning_beats_baseline_on_ambiguous_corpus(self):
        corpus = generate_synthetic_corpus(
            mini_spec(8, n_stems=30, n_sentences=160))
        baseline = most_frequent_tag_baseline(corpus, k=4)
        trained = cross_validate(corpus, k=4).mean_accuracy
        assert trained > baseline


class TestRenderReportCsv:
    def _report(self, accs):
        folds = [FoldResult(i, a, 3, 2, 100) for i, a in enumerate(accs)]
        return _summarize(folds)

    def test_empty_curve(self):
        assert render_report_csv([]) == (
            "corpus_words,mean_accuracy,stddev_accuracy,"
            "mean_lexical_rules,mean_contextual_rules\n")

    def test_row_round_trips_through_csv_reader(self):
        row = CurveRow(1234, self._report([0.9, 0.95, 1.0]))
        text = render_report_csv([row])
        records = list(csv.DictReader(io.StringIO(text)))
        assert len(records) == 1
        rec = records[0]
        assert int(rec["corpus_words"]) == 1234
        assert float(rec["mean_accuracy"]) == pytest.approx(0.95, abs=1e-6)
        assert float(rec["mean_lexical_rules"]) == 3.0

    def test_six_decimal_places(self):
        text = render_report_csv([CurveRow(10, self._report([0.5]))])
        assert "0.500000" in text


class TestRenderFoldsCsv:
    def test_structure(self):
        folds = [FoldResult(i, 0.9, 1, 2, 50, 0.95, 0.5) for i in range(4)]
        text = render_folds_csv(_summarize(folds))
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 4 + 1  # header, folds, summary
        header = lines[0].split(",")
        assert header[0] == "fold_id"
        assert all(len(l.split(",")) == len(header) for l in lines[1:])
        assert lines[-1].startswith("mean,0.900000")


class TestRenderConfusionCsv:
    def test_sorted_rows(self):
        from collections import Counter
        confusion = Counter({("NN", "VB"): 2, ("AT", "AT"): 5})
        text = render_confusion_csv(confusion)
        assert text == ("gold_tag,predicted_tag,count\n"
                        "AT,AT,5\nNN,VB,2\n")
