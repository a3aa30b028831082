"""Traced rounds: the work of each CLI command redone from the public
functions of the corpus, lexicon, learner, rules and evaluate modules, with
a span around each call. Spans are recorded here only, never inside the
package, so the package runs exactly the code it runs untraced; every
output of a traced round is checked against the untraced reference."""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

from tbltagger.corpus import (TaggedCorpus, Token, kfold_split, load_tagset,
                              parse_raw_corpus, parse_tagged_corpus,
                              select_sentences, serialize_tagged_corpus)
from tbltagger.evaluate import accuracy, strip_tags
from tbltagger.learner import (TrainConfig, initial_contextual_state,
                               learn_contextual_rules, learn_lexical_rules,
                               token_errors)
from tbltagger.lexicon import build_lexicon, default_greek_chain, initial_tag
from tbltagger.rules import (TaggerModel, apply_contextual_rule,
                             apply_contextual_rules, apply_lexical_rules,
                             load_model, save_model)

from session import COMMANDS, Checker, GateError, Ops
from workloads import CV_FOLDS, Inputs, read_text, write_inputs

class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, pid]; a
    span's id is its index in ``spans``."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._pid = os.getpid()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded in another process under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, pid in spans:
            self.spans.append([name, start, end,
                               parent if up is None else offset + up, pid])

    def totals(self) -> dict:
        """Seconds spent in spans of each name, summed over processes."""
        out = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def self_ns(self) -> list:
        """Per span: its duration minus the part its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0, start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def write(self, fh) -> None:
        for index, (span, self_ns) in enumerate(zip(self.spans,
                                                    self.self_ns())):
            name, start, end, parent, pid = span
            fh.write(json.dumps({
                "run": self.run_id, "id": index, "name": name,
                "start_ns": start, "end_ns": end, "parent": parent,
                "pid": pid, "self_ns": self_ns}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, 0, 0, tr._open[-1] if tr._open else None,
                         tr._pid])
        tr._open.append(self.index)
        tr.spans[self.index][1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._open.pop()

    @property
    def seconds(self) -> float:
        _, start, end, _, _ = self.tracer.spans[self.index]
        return (end - start) / 1e9


class NullTracer:
    """Records nothing; lets untraced code share the traced call sites."""

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_SPAN = _NullSpan()


def traced_tag(tr: Tracer, raw_sentences, model: TaggerModel,
               counts: dict = None) -> TaggedCorpus:
    """rules.tag_corpus split into its stages, a span around each: initial
    tags, lexical rules over unknown types, contextual rules over tokens."""
    with tr.span("rules.tag"):
        lexicon = model.lexicon
        with tr.span("rules.initial"):
            unknown = {}
            for sent in raw_sentences:
                for tok in sent:
                    if tok.word not in lexicon and tok.word not in unknown:
                        unknown[tok.word] = initial_tag(
                            tok.word, lexicon, model.initial_chain,
                            model.tagset)
        with tr.span("rules.lexical_apply"):
            unknown = apply_lexical_rules(model.lexical_rules, unknown,
                                          lexicon)
        with tr.span("rules.initial"):
            state = []
            for sent in raw_sentences:
                words = tuple(tok.word for tok in sent)
                state.append((words, [
                    unknown[w] if w in unknown
                    else lexicon.most_frequent_tag(w) for w in words]))
        if counts is not None:
            before = [list(tags) for _, tags in state]
        with tr.span("rules.contextual_apply"):
            apply_contextual_rules(model.contextual_rules, state)
        if counts is not None:
            counts["unknown_types"] += len(unknown)
            counts["tags_changed_contextual"] += sum(
                a != b for old, (_, new) in zip(before, state)
                for a, b in zip(old, new))
        return TaggedCorpus(
            tuple(tuple(Token(w, t) for w, t in zip(words, tags))
                  for words, tags in state), model.tagset)


def traced_train(tr: Tracer, corpus: TaggedCorpus, config: TrainConfig):
    """learner.train_model's two stages, a span around each. Returns the
    model and the two spans."""
    chain = default_greek_chain()
    with tr.span("learner.lexical") as lexical:
        lexicon, lexical_rules = learn_lexical_rules(corpus, chain, config)
    with tr.span("learner.contextual") as contextual:
        contextual_rules = learn_contextual_rules(corpus, lexicon,
                                                  lexical_rules, chain, config)
    model = TaggerModel(corpus.tagset, lexicon, chain, lexical_rules,
                        contextual_rules)
    return model, lexical, contextual


def traced_fold(task, tracer: Tracer = None):
    """One fold of evaluate.cross_validate: train on the other folds, tag
    and score this one. Returns (accuracy, test tokens, spans); the spans
    are None when recorded straight into ``tracer``."""
    corpus, plan, fold_id, config = task
    tr = tracer or Tracer()
    with tr.span("evaluate.fold"):
        train = select_sentences(corpus, [
            i for i in range(len(corpus.sentences))
            if plan.assignments[i] != fold_id])
        test = select_sentences(corpus, plan.fold_indices(fold_id))
        model, _, _ = traced_train(tr, train, config)
        predicted = traced_tag(tr, strip_tags(test), model)
        with tr.span("evaluate.accuracy"):
            acc, _ = accuracy(predicted, test)
    return acc, test.word_count, None if tracer else tr.spans


def traced_round(inputs: Inputs, checker: Checker, ops: Ops,
                 tr: Tracer) -> dict:
    """Set-up plus every command, traced; returns the round's counts and
    command spans."""
    p = inputs.paths
    out = {}
    write_inputs(inputs.workload, inputs.seed, p, tr)

    def train():
        config = TrainConfig()
        with tr.span("cli.train") as root:
            tagset = load_tagset(read_text(p.tagset))
            text = read_text(p.train)
            with tr.span("corpus.parse"):
                corpus = parse_tagged_corpus(text, tagset)
            model, lexical, contextual = traced_train(tr, corpus, config)
            with tr.span("rules.save_model"):
                # `tbltagger train` records its TrainConfig in MANIFEST.
                save_model(model, p.traced_model,
                           manifest_extra=dataclasses.asdict(config))
            predicted = traced_tag(tr, strip_tags(corpus), model)
            with tr.span("evaluate.accuracy"):
                _, confusion = accuracy(predicted, corpus)
        out["train"] = root
        checker.model(p.traced_model)
        n_ctx = len(model.contextual_rules)
        out.update(lexical_s=lexical.seconds, contextual_s=contextual.seconds,
                   lexical_rules=len(model.lexical_rules),
                   contextual_rules=n_ctx,
                   lexicon_entries=len(model.lexicon))
        # Layer work `tbltagger train` does inside the learner, redone
        # outside the command's span so it does not count towards it.
        with tr.span("diagnose"):
            with tr.span("lexicon.build"):
                lexicon = build_lexicon(corpus)
            with tr.span("learner.contextual_state"):
                state, gold = initial_contextual_state(
                    corpus, model.lexicon, model.lexical_rules,
                    model.initial_chain)
            before = token_errors(state, gold)
            with tr.span("learner.contextual_apply"):
                for rule in model.contextual_rules:
                    for words, tags in state:
                        apply_contextual_rule(rule, words, tags)
            after = token_errors(state, gold)
        if lexicon != model.lexicon:
            raise GateError("build_lexicon differs from the model's lexicon")
        errors = sum(n for (gold_tag, tag), n in confusion.items()
                     if gold_tag != tag)
        if after != errors:
            raise GateError("replaying the contextual rules leaves %d errors,"
                            " tagging the training corpus %d" % (after, errors))
        out["errors_fixed_per_rule"] = (before - after) / max(n_ctx, 1)

    def tag():
        with tr.span("cli.tag") as root:
            with tr.span("rules.load_model"):
                model = load_model(p.traced_model)
            text = read_text(p.raw)
            with tr.span("corpus.parse"):
                sentences = parse_raw_corpus(text)
            with open(p.traced_tagged, "w", encoding="utf-8") as fh:
                for sent in sentences:
                    tagged = traced_tag(tr, [sent], model)
                    with tr.span("corpus.serialize"):
                        fh.write(serialize_tagged_corpus(tagged))
        out["tag"] = root
        checker.tagged_text(read_text(p.traced_tagged))

    def evaluate():
        counts = {"unknown_types": 0, "tags_changed_contextual": 0}
        with tr.span("cli.eval") as root:
            with tr.span("rules.load_model"):
                model = load_model(p.traced_model)
            text = read_text(p.gold)
            with tr.span("corpus.parse"):
                gold = parse_tagged_corpus(text, model.tagset)
            predicted = traced_tag(tr, strip_tags(gold), model, counts)
            with tr.span("evaluate.accuracy"):
                acc, _ = accuracy(predicted, gold)
        out["eval"] = root
        out.update(counts)
        if predicted != checker.reference_tagged:
            raise GateError("staged tagging differs from tag_corpus")
        checker.heldout_accuracy(acc)

    def crossval():
        jobs = inputs.workload.jobs
        config = TrainConfig()
        with tr.span("cli.crossval") as root:
            tagset = load_tagset(read_text(p.tagset))
            text = read_text(p.crossval)
            with tr.span("corpus.parse"):
                corpus = parse_tagged_corpus(text, tagset)
            # `tbltagger crossval` passes its --seed to both the fold split
            # and the training config.
            plan = kfold_split(corpus, CV_FOLDS, config.seed)
            tasks = [(corpus, plan, fold_id, config)
                     for fold_id in range(CV_FOLDS)]
            if jobs > 1:
                # The same pool as evaluate.cross_validate (the platform's
                # default start method). A spawn pool would also start
                # multiprocessing's resource tracker, which outlives the run.
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    folds = list(pool.map(traced_fold, tasks))
                for _, _, spans in folds:
                    tr.adopt(spans, root.index)
            else:
                folds = [traced_fold(task, tr) for task in tasks]
            mean = statistics.mean(acc for acc, _, _ in folds)
        out["crossval"] = root
        checker.crossval(["%.6f" % acc for acc, _, _ in folds], "%.6f" % mean,
                         sum(n for _, n, _ in folds))

    for op in (train, tag, evaluate, crossval):
        if not ops.run("traced " + op.__name__, op):
            break
    return out


# Per-layer metrics and their units. A time is the seconds spent in spans
# of that name in one traced round, summed over processes and not scaled
# for host speed; a run reports the median over its traced rounds.
LAYER_UNITS = {
    "learner.lexical_s": "s", "learner.lexical_rules": "count",
    "learner.lexical_ms_per_rule": "ms", "learner.contextual_s": "s",
    "learner.contextual_rules": "count", "learner.contextual_ms_per_rule": "ms",
    "learner.contextual_state_s": "s", "learner.contextual_apply_s": "s",
    "learner.errors_fixed_per_rule": "tokens/rule",
    "train.lexical_share": "ratio", "train.contextual_share": "ratio",
    "rules.initial_s": "s", "rules.lexical_apply_s": "s",
    "rules.contextual_apply_s": "s", "rules.unknown_types": "count",
    "rules.tags_changed_contextual": "count", "rules.save_model_s": "s",
    "rules.load_model_s": "s", "corpus.parse_s": "s",
    "corpus.serialize_s": "s", "lexicon.build_s": "s",
    "lexicon.entries": "count", "evaluate.generate_s": "s",
    "evaluate.fold_s_median": "s", "evaluate.fold_s_max": "s",
    "evaluate.parallel_efficiency": "ratio", "evaluate.accuracy_s": "s",
    "cli.train_s": "s", "cli.tag_s": "s", "cli.eval_s": "s",
    "cli.crossval_s": "s", "trace.other_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer, out: dict, jobs: int) -> dict:
    """Per-layer figures of one traced round."""
    t = tr.totals()
    folds = [(end - start) / 1e9 for name, start, end, _, _ in tr.spans
             if name == "evaluate.fold"]
    selfs = tr.self_ns()
    train_s = out["train"].seconds
    return {
        "learner.lexical_s": t["learner.lexical"],
        "learner.lexical_rules": out["lexical_rules"],
        "learner.lexical_ms_per_rule":
            out["lexical_s"] * 1000 / max(out["lexical_rules"], 1),
        "learner.contextual_s": t["learner.contextual"],
        "learner.contextual_rules": out["contextual_rules"],
        "learner.contextual_ms_per_rule":
            out["contextual_s"] * 1000 / max(out["contextual_rules"], 1),
        "learner.contextual_state_s": t["learner.contextual_state"],
        "learner.contextual_apply_s": t["learner.contextual_apply"],
        "learner.errors_fixed_per_rule": out["errors_fixed_per_rule"],
        "train.lexical_share": out["lexical_s"] / train_s,
        "train.contextual_share": out["contextual_s"] / train_s,
        "rules.initial_s": t["rules.initial"],
        "rules.lexical_apply_s": t["rules.lexical_apply"],
        "rules.contextual_apply_s": t["rules.contextual_apply"],
        "rules.unknown_types": out["unknown_types"],
        "rules.tags_changed_contextual": out["tags_changed_contextual"],
        "rules.save_model_s": t["rules.save_model"],
        "rules.load_model_s": t["rules.load_model"],
        "corpus.parse_s": t["corpus.parse"],
        "corpus.serialize_s": t["corpus.serialize"],
        "lexicon.build_s": t["lexicon.build"],
        "lexicon.entries": out["lexicon_entries"],
        "evaluate.generate_s": t["evaluate.generate"],
        "evaluate.fold_s_median": statistics.median(folds),
        "evaluate.fold_s_max": max(folds),
        "evaluate.parallel_efficiency":
            sum(folds) / (jobs * out["crossval"].seconds),
        "evaluate.accuracy_s": t["evaluate.accuracy"],
        "cli.train_s": train_s,
        "cli.tag_s": out["tag"].seconds,
        "cli.eval_s": out["eval"].seconds,
        "cli.crossval_s": out["crossval"].seconds,
        "trace.other_s": sum(selfs[out[c].index] for c in COMMANDS) / 1e9,
    }
