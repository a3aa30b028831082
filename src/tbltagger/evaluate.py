"""Evaluation protocol: accuracy, k-fold cross-validation with mean and
sample standard deviation, learning curves over corpus sizes, and a
deterministic synthetic inflectional-language generator used where real
hand-tagged corpora are unavailable.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass
from operator import and_, eq

from .corpus import (AlignmentError, Memo, TaggedCorpus, TaggerError, Tagset,
                     Token, is_field, kfold_split, select_sentences,
                     truncate_to_words)
from .learner import TrainConfig, train_model


@dataclass(frozen=True)
class FoldResult:
    fold_id: int
    accuracy: float
    n_lexical_rules: int
    n_contextual_rules: int
    test_tokens: int
    known_accuracy: float = 1.0
    unknown_accuracy: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise TaggerError("accuracy out of [0, 1]")


@dataclass(frozen=True)
class EvalReport:
    folds: tuple
    mean_accuracy: float
    stddev_accuracy: float
    mean_lexical_rules: float
    mean_contextual_rules: float


@dataclass(frozen=True)
class CurveRow:
    corpus_words: int
    report: EvalReport


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic language: word = stem + suffix with the
    suffix fixing the base tag; with probability ambiguity_rate a word type
    gets an alternate tag that is realized, with probability
    context_rule_strength, whenever a determiner-like trigger word is
    inserted before it."""
    n_stems: int = 100
    suffix_paradigms: tuple = (("ος", "NNM"), ("η", "NNF"), ("μα", "NNT"),
                               ("ει", "VRB"), ("ως", "ADV"))
    ambiguity_rate: float = 0.3
    context_rule_strength: float = 1.0
    n_sentences: int = 500
    sentence_len_range: tuple = (5, 12)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_stems", "n_sentences", "seed"):
            if not _is_int(getattr(self, name)):
                raise TaggerError("%s must be an integer, got %r"
                                  % (name, getattr(self, name)))
        if self.n_stems < 1 or self.n_sentences < 1:
            raise TaggerError("n_stems and n_sentences must be >= 1")
        if self.n_stems > _MAX_STEMS:
            # the generator draws stems until it has n_stems distinct ones
            raise TaggerError("n_stems must be <= %d, the number of distinct "
                              "stems, got %d" % (_MAX_STEMS, self.n_stems))
        paradigms = self.suffix_paradigms
        if not isinstance(paradigms, tuple) or not paradigms:
            raise TaggerError("suffix_paradigms must hold at least one "
                              "[suffix, tag] pair")
        for pair in paradigms:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(x, str) for x in pair)):
                raise TaggerError("suffix_paradigms: %r is not a [suffix, "
                                  "tag] pair of strings" % (pair,))
        for suffix, _ in paradigms:
            # a suffix ends a token of the written corpus
            if not is_field(suffix):
                raise TaggerError("suffix_paradigms: suffix %r is empty or "
                                  "holds whitespace or a lone surrogate"
                                  % (suffix,))
        tags = [t for _, t in paradigms]
        if len(set(tags)) != len(tags):
            raise TaggerError("suffix_paradigms: tags must be distinct")
        for name in ("ambiguity_rate", "context_rule_strength"):
            rate = getattr(self, name)
            if (not isinstance(rate, (int, float)) or isinstance(rate, bool)
                    or not 0.0 <= rate <= 1.0):
                raise TaggerError("%s must be a number in [0, 1], got %r"
                                  % (name, rate))
        lengths = self.sentence_len_range
        if not (isinstance(lengths, tuple) and len(lengths) == 2
                and all(map(_is_int, lengths))):
            raise TaggerError("sentence_len_range must be a pair of "
                              "integers, got %r" % (lengths,))
        lo, hi = lengths
        if lo < 1 or hi < lo:
            raise TaggerError("bad sentence_len_range")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


SYNTH_ALT_TAG = "ALT"
SYNTH_FOREIGN_TAG = "FW"
SYNTH_PROPER_TAG = "PROP"
# Determiner-like trigger words forcing the alternate tag on the following
# ambiguous word. Distinct tags with skewed frequencies, so rules for rare
# triggers only become learnable as the corpus grows.
SYNTH_TRIGGERS = (("το", "DET", 0.6), ("ένα", "DTI", 0.3), ("κάθε", "DTQ", 0.1))
_TRIGGER_PROB = 0.4     # chance an ambiguous token is preceded by a trigger
_FOREIGN_PROB = 0.02
_PROPER_PROB = 0.02
_COMPOUND_PROB = 0.15   # two-stem compounds keep the vocabulary open-ended
_GREEK_LOWER = "αβγδεζηθικλμνξοπρστυφχψω"
_STEM_LENGTHS = (3, 6)
_MAX_STEMS = sum(len(_GREEK_LOWER) ** n
                 for n in range(_STEM_LENGTHS[0], _STEM_LENGTHS[1] + 1))
_FOREIGN_POOL = ("Microsoft", "Internet", "manager", "Sheffield", "email",
                 "online", "Windows", "Web")
_PROPER_POOL = ("Άννα", "Γιώργος", "Μαρία", "Νίκος", "Ελένη", "Κώστας")


def accuracy(predicted: TaggedCorpus, gold: TaggedCorpus):
    """(fraction of matching tags, Counter[(gold_tag, predicted_tag)]).
    Raises AlignmentError at the first structural divergence."""
    if len(predicted.sentences) != len(gold.sentences):
        raise AlignmentError("sentence counts differ: %d vs %d"
                             % (len(predicted.sentences), len(gold.sentences)))
    confusion = Counter()
    correct = total = 0
    for s_idx, (ps, gs) in enumerate(zip(predicted.sentences, gold.sentences)):
        if len(ps) != len(gs):
            raise AlignmentError("sentence %d length differs: %d vs %d"
                                 % (s_idx, len(ps), len(gs)))
        for p_idx, (pt, gt) in enumerate(zip(ps, gs)):
            if pt.word != gt.word:
                raise AlignmentError(
                    "word mismatch at sentence %d token %d: %r vs %r"
                    % (s_idx, p_idx, pt.word, gt.word))
            confusion[(gt.tag, pt.tag)] += 1
            total += 1
            if pt.tag == gt.tag:
                correct += 1
    if total == 0:
        raise AlignmentError("cannot compute accuracy on an empty corpus")
    return correct / total, confusion


def count_hits(tagger, gold_sentences, known=None, confusion=None) -> tuple:
    """Tags the words of each gold sentence with ``tagger.tag_words`` and
    counts the tokens whose tag is the gold tag: (hits, tokens, known hits,
    known tokens), a token being known when ``known`` holds its word (both
    0 with no ``known``). Adds each (gold tag, tag) pair to the
    ``confusion`` Counter when one is given. Raises AlignmentError when
    there is no token."""
    tag_words = tagger.tag_words
    hits = tokens = known_hits = known_tokens = 0
    for sent in gold_sentences:
        words = tuple([tok.word for tok in sent])
        gold = [tok.tag for tok in sent]
        tags = tag_words(words)
        hit = list(map(eq, gold, tags))
        hits += sum(hit)
        tokens += len(hit)
        if known is not None:
            held = list(map(known.__contains__, words))
            known_hits += sum(map(and_, hit, held))
            known_tokens += sum(held)
        if confusion is not None:
            confusion.update(zip(gold, tags))
    if not tokens:
        raise AlignmentError("cannot compute accuracy on an empty corpus")
    return hits, tokens, known_hits, known_tokens


def strip_tags(corpus: TaggedCorpus) -> list:
    """The corpus's words; each distinct word is wrapped in one ``Token``."""
    tokens = Memo(Token)
    return [tuple([tokens[tok.word] for tok in sent]) for sent in corpus.sentences]


def _summarize(folds) -> EvalReport:
    folds = tuple(sorted(folds, key=lambda f: f.fold_id))
    accs = [f.accuracy for f in folds]
    return EvalReport(
        folds=folds,
        mean_accuracy=statistics.mean(accs),
        stddev_accuracy=statistics.stdev(accs) if len(accs) > 1 else 0.0,
        mean_lexical_rules=statistics.mean(f.n_lexical_rules for f in folds),
        mean_contextual_rules=statistics.mean(f.n_contextual_rules
                                              for f in folds),
    )


def _run_fold(args):
    corpus, plan, fold_id, config = args
    train = select_sentences(corpus, [i for i in range(len(corpus.sentences))
                                      if plan.assignments[i] != fold_id])
    test = [corpus.sentences[i] for i in plan.fold_indices(fold_id)]
    model = train_model(train, config)
    # no fold is empty
    hits, tokens, known_hits, known_tokens = count_hits(
        model.tagger, test, known=model.lexicon.entries)
    unknown_tokens = tokens - known_tokens
    return FoldResult(
        fold_id=fold_id,
        accuracy=hits / tokens,
        n_lexical_rules=len(model.lexical_rules),
        n_contextual_rules=len(model.contextual_rules),
        test_tokens=tokens,
        known_accuracy=known_hits / known_tokens if known_tokens else 1.0,
        unknown_accuracy=((hits - known_hits) / unknown_tokens
                          if unknown_tokens else 1.0),
    )


def _process_pool(max_workers):
    """A process pool of ``max_workers`` workers. The import waits until a
    pool is built, so that commands which run no pool do not pay for
    loading ``concurrent.futures.process`` and ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def cross_validate(corpus: TaggedCorpus, k: int = 10,
                   config: TrainConfig = TrainConfig(),
                   jobs: int = 1) -> EvalReport:
    """Train on k-1 folds and test on the held-out fold, for every rotation.
    The folds are split with ``config.seed``, the seed of training too.
    Deterministic in (corpus, k, config); jobs > 1 evaluates folds in
    parallel, in at most k processes, with identical results."""
    plan = kfold_split(corpus, k, config.seed)
    tasks = [(corpus, plan, fold_id, config) for fold_id in range(k)]
    jobs = min(jobs, k)
    if jobs > 1:
        # a fork pool starts all its workers at the first submit
        with _process_pool(jobs) as pool:
            folds = list(pool.map(_run_fold, tasks))
    else:
        folds = [_run_fold(t) for t in tasks]
    return _summarize(folds)


def learning_curve(corpus: TaggedCorpus, word_sizes, k: int = 10,
                   config: TrainConfig = TrainConfig(),
                   jobs: int = 1) -> list:
    sizes = list(word_sizes)
    if sizes != sorted(sizes):
        raise TaggerError("word sizes must be ascending")
    rows = []
    for size in sizes:
        sub = truncate_to_words(corpus, size)
        if len(sub.sentences) < k:
            raise TaggerError("size %d leaves %d sentences, fewer than k=%d"
                              % (size, len(sub.sentences), k))
        report = cross_validate(sub, k, config, jobs)
        rows.append(CurveRow(sub.word_count, report))
    return rows


def synth_tagset(spec: SynthSpec) -> Tagset:
    tags = [t for _, t in spec.suffix_paradigms]
    tags += [t for _, t, _ in SYNTH_TRIGGERS]
    tags += [SYNTH_ALT_TAG, SYNTH_FOREIGN_TAG, SYNTH_PROPER_TAG]
    roles = {"FOREIGN": SYNTH_FOREIGN_TAG,
             "PROPER_MASC_SG": SYNTH_PROPER_TAG,
             "NOUN_FEM_SG": spec.suffix_paradigms[0][1]}
    return Tagset(tags, roles)


def generate_synthetic_corpus(spec: SynthSpec):
    """Deterministic (TaggedCorpus, Tagset) realizing the spec. The learnable
    regularities are the suffix -> tag paradigms (lexical) and the forced
    alternate tag after the trigger word (contextual)."""
    rnd = random.Random(spec.seed)
    tagset = synth_tagset(spec)

    stems = set()
    while len(stems) < spec.n_stems:
        stems.add("".join(rnd.choice(_GREEK_LOWER)
                          for _ in range(rnd.randint(*_STEM_LENGTHS))))
    stems = sorted(stems)

    word_types = []  # (word, base_tag, ambiguous)
    for stem in stems:
        for suffix, tag in spec.suffix_paradigms:
            ambiguous = rnd.random() < spec.ambiguity_rate
            word_types.append((stem + suffix, tag, ambiguous))
    # Zipf-distributed type frequencies: the long tail of rare types is what
    # makes unknown words appear in held-out data.
    cum_weights = []
    total = 0.0
    for rank in range(len(word_types)):
        total += 1.0 / (rank + 1)
        cum_weights.append(total)

    lo, hi = spec.sentence_len_range
    sentences = []
    for _ in range(spec.n_sentences):
        tokens = []
        for _ in range(rnd.randint(lo, hi)):
            r = rnd.random()
            if r < _FOREIGN_PROB:
                tokens.append(Token(rnd.choice(_FOREIGN_POOL),
                                    SYNTH_FOREIGN_TAG))
                continue
            if r < _FOREIGN_PROB + _PROPER_PROB:
                tokens.append(Token(rnd.choice(_PROPER_POOL),
                                    SYNTH_PROPER_TAG))
                continue
            if r < _FOREIGN_PROB + _PROPER_PROB + _COMPOUND_PROB:
                suffix, tag = spec.suffix_paradigms[
                    rnd.randrange(len(spec.suffix_paradigms))]
                word = rnd.choice(stems) + rnd.choice(stems) + suffix
                tokens.append(Token(word, tag))
                continue
            word, base_tag, ambiguous = rnd.choices(
                word_types, cum_weights=cum_weights)[0]
            if ambiguous and rnd.random() < _TRIGGER_PROB:
                trig_word, trig_tag, _ = rnd.choices(
                    SYNTH_TRIGGERS, weights=[w for _, _, w in SYNTH_TRIGGERS])[0]
                tokens.append(Token(trig_word, trig_tag))
                tag = (SYNTH_ALT_TAG
                       if rnd.random() < spec.context_rule_strength
                       else base_tag)
                tokens.append(Token(word, tag))
            else:
                tokens.append(Token(word, base_tag))
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences), tagset)


def render_report_csv(rows) -> str:
    """Curve rows as CSV matching the learning-curve figures: accuracy and
    rule counts against corpus size."""
    lines = ["corpus_words,mean_accuracy,stddev_accuracy,"
             "mean_lexical_rules,mean_contextual_rules"]
    for row in rows:
        r = row.report
        lines.append("%d,%.6f,%.6f,%.6f,%.6f"
                     % (row.corpus_words, r.mean_accuracy, r.stddev_accuracy,
                        r.mean_lexical_rules, r.mean_contextual_rules))
    return "".join(line + "\n" for line in lines)


def render_folds_csv(report: EvalReport) -> str:
    """Per-fold rows plus a summary row; used by the cross-validation CLI."""
    lines = ["fold_id,accuracy,n_lexical_rules,n_contextual_rules,"
             "test_tokens,known_accuracy,unknown_accuracy"]
    for f in report.folds:
        lines.append("%d,%.6f,%d,%d,%d,%.6f,%.6f"
                     % (f.fold_id, f.accuracy, f.n_lexical_rules,
                        f.n_contextual_rules, f.test_tokens,
                        f.known_accuracy, f.unknown_accuracy))
    lines.append("mean,%.6f,%.6f,%.6f,,," % (
        report.mean_accuracy, report.mean_lexical_rules,
        report.mean_contextual_rules))
    return "".join(line + "\n" for line in lines)


def render_confusion_csv(confusion: Counter) -> str:
    lines = ["gold_tag,predicted_tag,count"]
    for (gold_tag, pred_tag), count in sorted(confusion.items()):
        lines.append("%s,%s,%d" % (gold_tag, pred_tag, count))
    return "".join(line + "\n" for line in lines)
