"""Command-line interface.

Subcommands: train, tag, eval, crossval, curve, synth. All randomness flows
from explicit --seed flags (default 0). Exit codes: 0 success, 2 config or
parse error, 3 I/O error, 4 data alignment error. ``corpus`` reads and
writes every file; this module holds no file format.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import logging
import sys
from collections import Counter

from .corpus import (AlignmentError, TaggerError, load_tagset,
                     parse_tagged_corpus, raw_sentences, read_text,
                     serialize_tagged_corpus, serialize_tagset, tagged_lines,
                     write_atomically)
from .evaluate import (SynthSpec, count_hits, cross_validate,
                       generate_synthetic_corpus, learning_curve,
                       render_confusion_csv, render_folds_csv,
                       render_report_csv)
from .learner import TrainConfig, train_model_and_errors
from .rules import load_model, save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        score_threshold=args.threshold,
        max_rules_per_phase=args.max_rules,
        lexicon_split_fraction=args.lexicon_split,
        max_affix_len=args.max_affix_len,
        seed=args.seed,
    )


def _read_corpus(args):
    """The --corpus file, parsed against the --tagset file."""
    tagset = load_tagset(read_text(args.tagset))
    return parse_tagged_corpus(read_text(args.corpus), tagset)


def _jobs(args) -> int:
    if args.jobs < 1:
        raise TaggerError("--jobs must be at least 1, got %d" % args.jobs)
    return args.jobs


@contextlib.contextmanager
def _log_to_stderr(level):
    """Show the package's log records at ``level`` and above on stderr while
    a command runs; with no level, log nothing, as the package does when no
    handler is set up."""
    if level is None:
        yield
        return
    package = logging.getLogger("tbltagger")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = package.level
    package.addHandler(handler)
    package.setLevel(level)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(old_level)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a command runs, then give
    it back in the state the caller left it in. The package's objects form
    no reference cycles (a command leaves a few hundred objects of argparse
    and json in them), so a collection would walk the corpus and the
    learner's tables and free next to nothing. Fold workers forked by the
    command inherit the pause."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _add_train_flags(p):
    """The flags of every command that trains on a corpus."""
    p.add_argument("--corpus", required=True, help="tagged corpus file")
    p.add_argument("--tagset", required=True, help="tagset config file")
    p.add_argument("--threshold", type=int,
                   default=TrainConfig.score_threshold,
                   help="minimum net score for a rule to be accepted")
    p.add_argument("--max-rules", type=int,
                   default=TrainConfig.max_rules_per_phase,
                   help="cap on learned rules per phase (default unlimited)")
    p.add_argument("--lexicon-split", type=float,
                   default=TrainConfig.lexicon_split_fraction,
                   help="fraction of sentences building the guess lexicon "
                        "during lexical-rule learning")
    p.add_argument("--max-affix-len", type=int,
                   default=TrainConfig.max_affix_len,
                   help="maximum affix length in lexical rule arguments")
    p.add_argument("--seed", type=int, default=TrainConfig.seed,
                   help="seed for all shuffling and splitting")
    p.add_argument("--log-level", type=str.upper, default=None,
                   choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                   help="log to stderr at this level; INFO shows each "
                        "accepted rule (default: no log output)")


def _add_fold_flags(p):
    """The flags of crossval and curve."""
    _add_train_flags(p)
    p.add_argument("--k", type=int, default=10, help="number of folds")
    p.add_argument("--jobs", type=int, default=1,
                   help="evaluate folds in parallel")
    p.add_argument("--out", default=None, help="report CSV path (default stdout)")


def cmd_train(args) -> int:
    train = _read_corpus(args)
    config = _train_config(args)
    model, errors = train_model_and_errors(train, config)
    save_model(model, args.out, manifest_extra=dataclasses.asdict(config))
    print("tokens: %d" % train.word_count)
    print("lexical rules: %d" % len(model.lexical_rules))
    print("contextual rules: %d" % len(model.contextual_rules))
    print("training accuracy: %.6f"
          % ((train.word_count - errors) / train.word_count))
    return EXIT_OK


def cmd_tag(args) -> int:
    tag_words = load_model(args.model).tagger.tag_words
    raw = raw_sentences(read_text(args.infile))
    write_atomically((args.out, tagged_lines(tag_words, raw)))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    gold = parse_tagged_corpus(read_text(args.gold), model.tagset)
    confusion = Counter() if args.confusion else None
    hits, tokens, _, _ = count_hits(model.tagger, gold.sentences,
                                    confusion=confusion)
    print("%.6f" % (hits / tokens))
    if args.confusion:
        write_atomically((args.confusion, (render_confusion_csv(confusion),)))
    return EXIT_OK


def _write_report(path, csv) -> None:
    """The report CSV of crossval or curve, to ``path`` (--out) atomically
    or, with no path, to stdout."""
    if path:
        write_atomically((path, (csv,)))
    else:
        sys.stdout.write(csv)


def cmd_crossval(args) -> int:
    report = cross_validate(_read_corpus(args), k=args.k,
                            config=_train_config(args), jobs=_jobs(args))
    _write_report(args.out, render_folds_csv(report))
    if args.out:
        print("mean accuracy: %.6f (stddev %.6f)"
              % (report.mean_accuracy, report.stddev_accuracy))
    return EXIT_OK


def cmd_curve(args) -> int:
    corpus = _read_corpus(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes:
        raise TaggerError("--sizes must be comma-separated integers, got %r"
                          % args.sizes)
    rows = learning_curve(corpus, sizes, k=args.k, config=_train_config(args),
                          jobs=_jobs(args))
    _write_report(args.out, render_report_csv(rows))
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        raw = json.loads(read_text(args.spec))
    except RecursionError as exc:
        raise TaggerError("synthetic spec nests too deeply") from exc
    if not isinstance(raw, dict):
        raise TaggerError("synthetic spec must be a JSON object")
    # JSON arrays become the tuples SynthSpec holds; it refuses the rest
    if isinstance(raw.get("suffix_paradigms"), list):
        raw["suffix_paradigms"] = tuple(
            tuple(pair) if isinstance(pair, list) else pair
            for pair in raw["suffix_paradigms"])
    if isinstance(raw.get("sentence_len_range"), list):
        raw["sentence_len_range"] = tuple(raw["sentence_len_range"])
    try:
        spec = SynthSpec(**raw)
    except TypeError as exc:
        raise TaggerError("bad synthetic spec: %s" % exc) from exc
    corpus = generate_synthetic_corpus(spec)
    tagset_path = args.tagset_out or args.out + ".tagset"
    write_atomically((args.out, (serialize_tagged_corpus(corpus),)),
                     (tagset_path, (serialize_tagset(corpus.tagset),)))
    print("wrote %d sentences, %d tokens"
          % (len(corpus.sentences), corpus.word_count))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbltagger",
        description="Transformation-based part-of-speech tagger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a tagged corpus")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="model directory to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a raw corpus with a trained model")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--in", dest="infile", required=True,
                   help="raw corpus file, one sentence per line")
    p.add_argument("--out", required=True, help="tagged output file")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="evaluate a model against a gold corpus")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--gold", required=True, help="gold tagged corpus")
    p.add_argument("--confusion", default=None,
                   help="write the confusion matrix CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    _add_fold_flags(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("curve", help="learning curve over corpus sizes")
    _add_fold_flags(p)
    p.add_argument("--sizes", required=True,
                   help="comma-separated ascending word counts")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("synth", help="generate a synthetic tagged corpus")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--tagset-out", default=None,
                   help="tagset file (default: <out>.tagset)")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    with _gc_paused():
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            with _log_to_stderr(getattr(args, "log_level", None)):
                return args.func(args)
        except AlignmentError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_DATA
        except (TaggerError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_IO


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
