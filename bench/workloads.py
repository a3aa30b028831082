"""Workloads of bench/workloads.json and their inputs: one seeded synthetic
corpus per workload, split into training, held-out and cross-validation
text and written to a work directory in the formats the CLI reads."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from tbltagger.corpus import (TaggedCorpus, Token, load_tagset,
                              parse_raw_corpus, parse_tagged_corpus,
                              serialize_tagged_corpus, serialize_tagset)
from tbltagger.evaluate import SynthSpec, generate_synthetic_corpus

CONFIG = Path(__file__).with_name("workloads.json")
CV_FOLDS = 10
# A seed other than 0 renames the letters the synthetic generator builds
# stems from, in every word: each block of letters maps in order onto a
# seeded choice of the lowercase Greek letters between the same neighbours
# (ί U+03AF, ς U+03C2, ώ U+03CE), all NFC-stable. Equality, affixes,
# characters present, script class and the order of any two strings are
# kept, so the learners break ties alike, learn the same rules under new
# names and do the same work; only the bytes (and so hashing) change.
# Renaming that ignored order changed the rules learned, and with them
# train-morph's training time by a factor of two.
RENAMED_BLOCKS = (("αβγδεζηθικλμνξοπρ", range(0x3B0, 0x3C2)),
                  ("στυφχψω", range(0x3C3, 0x3CE)))
# Smoke mode shrinks every workload to these sizes.
SMOKE_SIZES = {"n_stems": 30, "train": 60, "heldout": 40, "crossval": 30}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SynthSpec  # n_sentences = train + heldout
    train: int
    heldout: int
    crossval: int
    jobs: int
    # Outputs every seed must reproduce; "model_sha256" maps a seed (str)
    # to the model digest recorded for it.
    expected: dict


def load_workloads(smoke: bool = False) -> dict:
    raw = json.loads(CONFIG.read_text(encoding="utf-8"))["workloads"]
    out = {}
    for name, w in raw.items():
        spec = dict(w["spec"])
        if "suffix_paradigms" in spec:
            spec["suffix_paradigms"] = tuple(map(tuple, spec["suffix_paradigms"]))
        sizes = {k: w[k] for k in ("train", "heldout", "crossval")}
        if smoke:
            spec["n_stems"] = min(spec["n_stems"], SMOKE_SIZES["n_stems"])
            sizes = {k: min(v, SMOKE_SIZES[k]) for k, v in sizes.items()}
        spec["n_sentences"] = sizes["train"] + sizes["heldout"]
        out[name] = Workload(name, SynthSpec(**spec), jobs=w["jobs"],
                             expected={} if smoke else w["expected"], **sizes)
    return out


def relabel(corpus: TaggedCorpus, seed: int) -> TaggedCorpus:
    if seed == 0:
        return corpus
    rnd = random.Random(seed)
    table = {}
    for letters, targets in RENAMED_BLOCKS:
        chosen = sorted(rnd.sample(targets, len(letters)))
        table.update(zip(map(ord, letters), chosen))
    return TaggedCorpus(
        tuple(tuple(Token(tok.word.translate(table), tok.tag) for tok in sent)
              for sent in corpus.sentences),
        corpus.tagset)


class Paths:
    """Files of one run, all under its work directory."""

    def __init__(self, root: Path):
        self.root = root
        for name in ("tagset", "train", "raw", "gold", "crossval", "model",
                     "tagged", "folds", "traced_model", "traced_tagged"):
            setattr(self, name, str(root / name))


@dataclass
class Inputs:
    """What the rounds of a run read: the files and the held-out text as
    the CLI parses it."""
    workload: Workload
    seed: int
    paths: Paths
    heldout_raw: list
    gold: TaggedCorpus

    @property
    def heldout_tokens(self) -> int:
        return self.gold.word_count


def write_inputs(w: Workload, seed: int, paths: Paths, tracer) -> None:
    """Generate the workload's corpus for ``seed`` and write its files."""
    with tracer.span("setup"):
        with tracer.span("evaluate.generate"):
            corpus = generate_synthetic_corpus(w.spec)
        corpus = relabel(corpus, seed)
        sents, tagset = corpus.sentences, corpus.tagset
        heldout = sents[w.train:]
        with tracer.span("corpus.serialize"):
            texts = {
                paths.tagset: serialize_tagset(tagset),
                paths.train: serialize_tagged_corpus(
                    TaggedCorpus(sents[:w.train], tagset)),
                paths.crossval: serialize_tagged_corpus(
                    TaggedCorpus(sents[:w.crossval], tagset)),
                paths.gold: serialize_tagged_corpus(
                    TaggedCorpus(heldout, tagset)),
            }
        texts[paths.raw] = "".join(
            " ".join(tok.word for tok in sent) + "\n" for sent in heldout)
        for path, text in texts.items():
            Path(path).write_text(text, encoding="utf-8")


def read_inputs(w: Workload, seed: int, paths: Paths) -> Inputs:
    tagset = load_tagset(read_text(paths.tagset))
    gold = parse_tagged_corpus(read_text(paths.gold), tagset)
    return Inputs(w, seed, paths, parse_raw_corpus(read_text(paths.raw)), gold)


def read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")
