"""Untraced rounds: each CLI command of a workload run in-process through
tbltagger.cli.main, timed, with every output checked by a Checker."""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time
import traceback
from pathlib import Path

from tbltagger.cli import main as cli_main
from tbltagger.evaluate import accuracy
from tbltagger.rules import load_model, tag_corpus
from tbltagger.corpus import serialize_tagged_corpus

from calibrate import Meter
from workloads import CV_FOLDS, Inputs, read_text

# The commands a round times, under the names of their metrics.
COMMANDS = ("train", "tag", "eval", "crossval")
# train and crossval repeat within a round until they have run this long
# in all...
MIN_COMMAND_S = 3.0
# ...or this many times.
MAX_REPEATS = 6
# tag, the per-sentence loop and eval run in this many blocks spread over a
# round, so that their samples meet more of the host's speed phases...
LIGHT_BLOCKS = 3
# ...the loop making this many passes over the held-out text per block,
# and tag and eval running this many times per block.
LOOP_PASSES = 3
LIGHT_REPEATS = 2
# Per-sentence calls between two host-speed probes.
LOOP_CHUNK = 100
# The saved model as the digest covers it, in this order.
MODEL_FILES = ("TAGSET", "LEXICON", "LEXRULES", "CTXRULES", "MANIFEST")


class GateError(Exception):
    """An output of the program differs from its reference."""


def model_digest(model_dir) -> tuple:
    """(sha256 over the model files, their total size in bytes)."""
    h = hashlib.sha256()
    size = 0
    for name in MODEL_FILES:
        data = (Path(model_dir) / name).read_bytes()
        h.update(b"%s %d\n" % (name.encode(), len(data)))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


class Checker:
    """Holds the reference outputs of a run: the first model trained, the
    batch tag_corpus output of the held-out text under it, and the first
    cross-validation report. Every later output must equal them, and so
    must the outputs recorded in workloads.json."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.expected = dict(inputs.workload.expected)
        digests = self.expected.pop("model_sha256", {})
        if str(inputs.seed) in digests:
            self.expected["model_sha256"] = digests[str(inputs.seed)]
        self.observed = {}
        self.reference_tagged = None
        self.reference_text = None

    def _observe(self, **values):
        for key, value in values.items():
            if key in self.observed and self.observed[key] != value:
                raise GateError("%s changed within the run: %r then %r"
                                % (key, self.observed[key], value))
            if key in self.expected and self.expected[key] != value:
                raise GateError("%s is %r, recorded %r"
                                % (key, value, self.expected[key]))
            self.observed[key] = value

    def model(self, model_dir) -> None:
        digest, size = model_digest(model_dir)
        rules = [len(read_text(Path(model_dir) / name).splitlines())
                 for name in ("LEXRULES", "CTXRULES")]
        self._observe(model_sha256=digest, model_bytes=size,
                      lexical_rules=rules[0], contextual_rules=rules[1])
        if self.reference_tagged is None:
            tagged = tag_corpus(self.inputs.heldout_raw, load_model(model_dir))
            self.reference_tagged = tagged
            self.reference_text = serialize_tagged_corpus(tagged)
            self._observe(heldout_accuracy=accuracy(tagged,
                                                    self.inputs.gold)[0])

    def train_stdout(self, out: str) -> None:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        if (int(lines["lexical rules"]) != self.observed["lexical_rules"]
                or int(lines["contextual rules"])
                != self.observed["contextual_rules"]):
            raise GateError("train reports rule counts %r, model has %r"
                            % (lines, self.observed))

    def tagged_text(self, text: str) -> None:
        if text != self.reference_text:
            raise GateError("tagged output differs from batch tag_corpus")

    def tagged_sentence(self, index: int, tagged) -> bool:
        return tagged.sentences[0] == self.reference_tagged.sentences[index]

    def heldout_accuracy(self, acc: float) -> None:
        self._observe(heldout_accuracy=acc)

    def eval_stdout(self, out: str) -> None:
        if out.strip() != "%.6f" % self.observed["heldout_accuracy"]:
            raise GateError("eval printed %r, batch accuracy is %r"
                            % (out.strip(), self.observed["heldout_accuracy"]))

    def crossval(self, fold_accuracies, mean: str, test_tokens: int) -> None:
        """Check one cross-validation report, accuracies as the CLI prints
        them (six decimals)."""
        if len(fold_accuracies) != CV_FOLDS:
            raise GateError("expected %d folds, got %d"
                            % (CV_FOLDS, len(fold_accuracies)))
        spread = abs(float(mean) - sum(map(float, fold_accuracies)) / CV_FOLDS)
        if spread > 1e-6:
            raise GateError("mean accuracy %s is not the mean of %r"
                            % (mean, fold_accuracies))
        self._observe(cv_fold_accuracies=list(fold_accuracies),
                      cv_test_tokens=test_tokens,
                      cv_mean_accuracy=float(mean))


class Ops:
    """Counts the operations a run attempted and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name, fn) -> bool:
        self.attempted += 1
        try:
            fn()
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            self.failed += 1
            print("op %s failed: %s: %s" % (name, type(exc).__name__, exc),
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        return True


def run_cli(argv) -> str:
    """tbltagger.cli.main in-process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise GateError("tbltagger %s exited %d" % (argv[0], code))
    return buf.getvalue()


def crossval_argv(inputs: Inputs, out: str) -> list:
    p = inputs.paths
    return ["crossval", "--corpus", p.crossval, "--tagset", p.tagset,
            "--k", str(CV_FOLDS), "--jobs", str(inputs.workload.jobs),
            "--out", out]


def parse_folds_csv(text: str) -> tuple:
    """(fold accuracies, mean accuracy, test tokens) of a `tbltagger
    crossval` report, accuracies as printed."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    folds = [r for r in rows if r[0] != "mean"]
    mean = [r[1] for r in rows if r[0] == "mean"]
    if len(mean) != 1:
        raise GateError("crossval report has %d mean rows" % len(mean))
    return [r[1] for r in folds], mean[0], sum(int(r[4]) for r in folds)


def untraced_round(inputs: Inputs, checker: Checker, ops: Ops,
                   meter: Meter) -> dict:
    """One pass over every command and the per-sentence loop. Returns, per
    command, (raw seconds, host-speed factor) of each run, and the
    per-sentence latencies, scaled and raw."""
    p = inputs.paths
    out = {name: [] for name in COMMANDS + ("raw_latencies_us",)}
    scaled = [[] for _ in inputs.heldout_raw]

    def timed(command, fn, every_cpu=False):
        raw, speed, result = meter.time(fn, every_cpu)
        out[command].append((raw, speed))
        return result

    def train():
        stdout = timed("train", lambda: run_cli([
            "train", "--corpus", p.train, "--tagset", p.tagset,
            "--out", p.model]))
        checker.model(p.model)
        checker.train_stdout(stdout)

    def tag():
        timed("tag", lambda: run_cli(["tag", "--model", p.model,
                                      "--in", p.raw, "--out", p.tagged]))
        checker.tagged_text(read_text(p.tagged))

    def tag_sentences():
        # The closed loop `tbltagger tag` runs per input line, one caller,
        # over the held-out text LOOP_PASSES times. Probes run between
        # calls, every LOOP_CHUNK calls, so that no call's latency includes
        # one; each chunk is scaled by the probes of the chunks around it.
        # A sentence's latency is the median of its scaled timings in the
        # round, which drops the moments the probes misjudge.
        model = load_model(p.model)
        clock = time.perf_counter_ns
        sentences = inputs.heldout_raw
        raw = []
        bad = 0
        for _ in range(LOOP_PASSES):
            chunks, probes = [], [meter.settled_probe()]
            for lo in range(0, len(sentences), LOOP_CHUNK):
                times = []
                for index in range(lo, min(lo + LOOP_CHUNK, len(sentences))):
                    t0 = clock()
                    tagged = tag_corpus([sentences[index]], model)
                    times.append(clock() - t0)
                    bad += not checker.tagged_sentence(index, tagged)
                chunks.append(times)
                probes.append(meter.settled_probe())
            index = 0
            for i, times in enumerate(chunks):
                speed = meter.speed(probes[max(i - 4, 0):i + 6])
                for ns in times:
                    scaled[index].append(ns * speed / 1000)
                    index += 1
            raw += [ns / 1000 for times in chunks for ns in times]
        out["raw_latencies_us"] += raw
        # Each call is one operation; ops.run counts the last one.
        ops.attempted += LOOP_PASSES * len(sentences) - 1
        if bad:
            ops.failed += bad - 1
            raise GateError("%d per-sentence results differ from batch" % bad)

    def evaluate():
        stdout = timed("eval", lambda: run_cli(["eval", "--model", p.model,
                                                "--gold", p.gold]))
        checker.eval_stdout(stdout)

    def crossval():
        timed("crossval", lambda: run_cli(crossval_argv(inputs, p.folds)),
              every_cpu=inputs.workload.jobs > 1)
        checker.crossval(*parse_folds_csv(read_text(p.folds)))

    light = (("tag", tag, LIGHT_REPEATS), ("tag_sentences", tag_sentences, 1),
             ("eval", evaluate, LIGHT_REPEATS))
    steps = ((("train", train, MAX_REPEATS),) + light
             + (("crossval", crossval, MAX_REPEATS),)
             + light * (LIGHT_BLOCKS - 1))
    for name, op, repeats in steps:
        for _ in range(repeats):
            if not ops.run(name, op):
                return out
            if sum(raw for raw, _ in out.get(name, ())) >= MIN_COMMAND_S:
                break
    out["latencies_us"] = [statistics.median(times) for times in scaled]
    return out
