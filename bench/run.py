"""Benchmark of tbltagger on seeded synthetic workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload tag-heldout --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

A run generates its workload's corpora (bench/workloads.json) from the seed,
then repeats rounds until --seconds have passed. A round runs `tbltagger
train`, `tag`, `eval` and `crossval` in-process through tbltagger.cli.main,
plus a closed loop of per-sentence tag_corpus calls, one caller (see
session.untraced_round). Times are scaled for the host's speed (see
calibrate.py). Every output is checked (see session.Checker); a mismatch or
exception counts as a failed operation.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
rounds with traced ones, which redo each command from the package's public
functions with a span around each call, and reports the per-layer metrics;
its spans are written to bench/.work/trace-<workload>.jsonl when the run
ends. The last line of stdout is the result as one JSON object. --smoke
runs every workload on tiny corpora, traced and untraced, and checks that
each metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "train_s": "s", "crossval_s": "s",
    "tag_tokens_per_s": "tokens/s", "tag_sentence_p50_us": "us",
    "tag_sentence_p99_us": "us", "eval_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB", "heldout_accuracy": "ratio",
    "cv_mean_accuracy": "ratio", "model_bytes": "bytes",
}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    files = sorted((SRC / "tbltagger").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": digest.hexdigest(), "seed": seed,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def _scaled(rounds, command):
    """Median host-speed scaled seconds of a command over a run."""
    return statistics.median(raw * speed for r in rounds
                             for raw, speed in r[command])


def _raw(rounds, command):
    return statistics.median(raw for r in rounds for raw, _ in r[command])


def run_workload(w, seed: int, seconds: float, trace: bool) -> tuple:
    """(result as printed last, details for the gate line) of one run."""
    from calibrate import Meter
    from session import COMMANDS, Checker, Ops, untraced_round
    from traced import (LAYER_UNITS, NullTracer, Tracer, layer_metrics,
                        traced_round)
    from workloads import Paths, read_inputs, write_inputs

    WORK.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=w.name + "-", dir=WORK))
    try:
        paths = Paths(root)
        meter = Meter()
        setup = [meter.time(lambda: write_inputs(w, seed, paths, NullTracer()))
                 for _ in range(1 if trace else SETUP_REPEATS)]
        inputs = read_inputs(w, seed, paths)
        checker, ops = Checker(inputs), Ops()
        rounds, traced = [], []
        start = time.perf_counter()
        while not ops.failed:
            if trace and len(rounds) > len(traced):
                tracer = Tracer("%s/seed%d/round%d"
                                % (w.name, seed, len(rounds) + len(traced)))
                traced.append((tracer, traced_round(inputs, checker, ops,
                                                    tracer)))
            else:
                rounds.append(untraced_round(inputs, checker, ops, meter))
            if (time.perf_counter() - start >= seconds
                    and (traced or not trace)):
                break
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": {}}
    info = {"rounds": len(rounds), "traced_rounds": len(traced),
            "gate": checker.observed}
    if ops.failed:
        return result, info
    if trace:
        layers = [layer_metrics(tr, out, w.jobs) for tr, out in traced]
        overhead = [sum(layers[i]["cli.%s_s" % c] - _raw(rounds[i:i + 1], c)
                        for c in COMMANDS)
                    for i in range(len(traced))]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(overhead)
        units = LAYER_UNITS
        trace_path = WORK / ("trace-%s.jsonl" % w.name)
        with open(trace_path, "w", encoding="utf-8") as fh:
            for tr, _ in traced:
                tr.write(fh)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        latencies = [x for r in rounds for x in r["latencies_us"]]
        tokens = inputs.heldout_tokens
        values = {
            "setup_s": statistics.median(raw * speed for raw, speed, _ in setup),
            "train_s": _scaled(rounds, "train"),
            "crossval_s": _scaled(rounds, "crossval"),
            "tag_tokens_per_s": tokens / _scaled(rounds, "tag"),
            "tag_sentence_p50_us": statistics.median(latencies),
            "tag_sentence_p99_us": statistics.quantiles(latencies, n=100)[98],
            "eval_tokens_per_s": tokens / _scaled(rounds, "eval"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "heldout_accuracy": checker.observed["heldout_accuracy"],
            "cv_mean_accuracy": checker.observed["cv_mean_accuracy"],
            "model_bytes": checker.observed["model_bytes"],
        }
        units = END_TO_END
        info.update(latency_samples=len(latencies),
                    setup_samples=len(setup),
                    samples={c: sum(len(r[c]) for r in rounds)
                             for c in COMMANDS},
                    raw_s={c: _raw(rounds, c) for c in COMMANDS},
                    raw_p50_us=statistics.median(
                        x for r in rounds for x in r["raw_latencies_us"]),
                    speed=statistics.median(speed for r in rounds
                                            for c in COMMANDS
                                            for _, speed in r[c]))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    return result, info


def report(w, seed, trace, result, info) -> None:
    print("workload %s seed %d trace %d: %d rounds, %d traced"
          % (w.name, seed, trace, info["rounds"], info["traced_rounds"]))
    for name, m in result["metrics"].items():
        print("  %-34s %16.6f %s" % (name, m["value"], m["unit"]))
    verdict = "pass" if result["correct"] else "FAIL"
    print("gate %s" % json.dumps({
        "verdict": verdict, "ops_attempted": result["attempted"],
        "ops_failed": result["failed"], "digest_recorded":
            str(seed) in w.expected.get("model_sha256", {}), **info},
        ensure_ascii=False))


def smoke(workloads, seed: int) -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in workloads.values():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, info = run_workload(w, seed, 0, bool(trace))
            report(w, seed, trace, result, info)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or got != want:
                missing = sorted(set(want.items()) ^ set(got.items()))
                print("smoke FAIL %s trace %d: metrics differ from "
                      "BENCHMARK.json: %s" % (w.name, trace, missing))
                ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on tiny corpora, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "tbltagger" / "__init__.py").is_file():
        print("error: no package at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import load_workloads

    workloads = load_workloads(smoke=args.smoke)
    print("provenance %s" % json.dumps(provenance(args.seed)))
    if args.smoke:
        ok = smoke(workloads, args.seed)
        print("smoke %s" % ("ok" if ok else "FAIL"))
        return 0 if ok else 1
    if args.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))
    w = workloads[args.workload]
    result, info = run_workload(w, args.seed, args.seconds, bool(args.trace))
    report(w, args.seed, args.trace, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
