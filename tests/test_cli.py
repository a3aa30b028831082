"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import builtins
import contextlib
import gc
import io
import json
import logging
import os
import re
import stat
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltagger import cli
from tbltagger.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from tbltagger.corpus import (ModelError, ParseError, TaggerError,
                              load_tagset, parse_raw_corpus,
                              parse_tagged_corpus, serialize_tagged_corpus,
                              serialize_tagset)
from tbltagger.evaluate import (accuracy, cross_validate,
                                generate_synthetic_corpus, learning_curve,
                                render_confusion_csv, render_folds_csv,
                                render_report_csv, strip_tags, synth_tagset)
from tbltagger.learner import TrainConfig
from tbltagger.rules import (MODEL_FILES, Tagger, load_model, save_model,
                             tag_corpus)

from test_learner import mini_spec
from test_rules import TAGGING_CHARS, tagging_cases_st


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tagged corpus + tagset file pair on disk, plus a trained model."""
    root = tmp_path_factory.mktemp("cli")
    spec = mini_spec(1, n_sentences=40)
    corpus = generate_synthetic_corpus(spec)
    corpus_path = root / "corpus.txt"
    tagset_path = root / "tagset.txt"
    corpus_path.write_text(serialize_tagged_corpus(corpus), encoding="utf-8")
    tagset_path.write_text(serialize_tagset(corpus.tagset), encoding="utf-8")
    model_dir = root / "model"
    code = main(["train", "--corpus", str(corpus_path),
                 "--tagset", str(tagset_path), "--out", str(model_dir)])
    assert code == EXIT_OK
    return {"root": root, "corpus": corpus_path, "tagset": tagset_path,
            "model": model_dir, "spec": spec}


def read_model_files(model_dir):
    return {name: (model_dir / name).read_bytes()
            for name in ("TAGSET", "LEXICON", "LEXRULES", "CTXRULES",
                         "MANIFEST")}


class TestTrain:
    def test_writes_all_model_files(self, workspace):
        files = read_model_files(workspace["model"])
        assert set(files) == {"TAGSET", "LEXICON", "LEXRULES", "CTXRULES",
                              "MANIFEST"}
        manifest = json.loads(files["MANIFEST"])
        assert manifest["format_version"] == 1
        assert manifest["seed"] == 0

    def test_value_error_inside_training_is_not_a_refusal(
            self, workspace, tmp_path, monkeypatch):
        # only a TaggerError is a refusal (exit 2): a ValueError from a
        # fault in the learner propagates with its traceback
        def broken(train, config):
            raise ValueError("a fault in the learner")
        monkeypatch.setattr(cli, "train_model_and_errors", broken)
        with pytest.raises(ValueError, match="a fault in the learner"):
            main(["train", "--corpus", str(workspace["corpus"]),
                  "--tagset", str(workspace["tagset"]),
                  "--out", str(tmp_path / "m")])

    def test_summary_on_stdout(self, workspace, tmp_path, capsys):
        code = main(["train", "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]),
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lexical rules:" in out
        assert "training accuracy:" in out

    @pytest.mark.parametrize("case,flags", [
        ("context", []),
        ("context", ["--threshold", "1"]),
        ("context", ["--max-rules", "0"]),
        ("context", ["--max-rules", "1"]),
        ("skip", []),
    ])
    def test_summary_equals_retagging_the_training_corpus(
            self, workspace, tmp_path, capsys, case, flags):
        # the training accuracy comes from the learner's error count; it
        # must print what tagging the training corpus with the model gives
        if case == "context":
            corpus_path = workspace["corpus"]
        else:
            # "a" is NNF twice and VRB once: one error, below the
            # threshold of 2, so contextual learning is skipped
            corpus_path = tmp_path / "skip.txt"
            corpus_path.write_text("a/NNF b/NNM\na/NNF b/NNM\nb/NNM a/VRB\n",
                                   encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(["train", "--corpus", str(corpus_path),
                     "--tagset", str(workspace["tagset"]),
                     "--out", str(model_dir)] + flags)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        model = load_model(str(model_dir))
        corpus = parse_tagged_corpus(corpus_path.read_text(encoding="utf-8"),
                                     model.tagset)
        acc, _ = accuracy(tag_corpus(strip_tags(corpus), model), corpus)
        assert out == ("tokens: %d\nlexical rules: %d\ncontextual rules: "
                       "%d\ntraining accuracy: %.6f\n"
                       % (corpus.word_count, len(model.lexical_rules),
                          len(model.contextual_rules), acc))
        if case == "skip":
            assert acc < 1.0 and not model.contextual_rules
        elif not flags:
            assert model.contextual_rules

    def test_unknown_tag_in_corpus_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x/BOGUS\ny/BOGUS\n", encoding="utf-8")
        code = main(["train", "--corpus", str(bad),
                     "--tagset", str(workspace["tagset"]),
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "BOGUS" in err
        assert "line 1" in err
        assert not (tmp_path / "m").exists()  # no partial model

    @pytest.mark.parametrize("text, message", [
        ("", "cannot train on an empty corpus"),
        ("x/NNM\n", "need at least 2 sentences to split, got 1"),
    ], ids=["empty", "one-sentence"])
    def test_untrainable_corpus_exits_2(self, workspace, tmp_path, capsys,
                                        text, message):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        code = main(["train", "--corpus", str(corpus),
                     "--tagset", str(workspace["tagset"]),
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "m").exists()

    def test_unknown_flag_exits_2(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(workspace["corpus"]),
                  "--tagset", str(workspace["tagset"]),
                  "--out", str(tmp_path / "m"), "--bogus-flag"])
        assert exc.value.code == 2

    def test_directory_holding_other_files_is_not_replaced(
            self, workspace, tmp_path, capsys):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n", encoding="utf-8")
        code = main(["train", "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "notes.txt" in capsys.readouterr().err
        assert os.listdir(out) == ["notes.txt"]
        assert (out / "notes.txt").read_text(encoding="utf-8") == "keep me\n"
        assert os.listdir(tmp_path) == ["notes"]  # no .model-* left beside

    def test_determinism_byte_identical_models(self, workspace, tmp_path):
        args = ["train", "--corpus", str(workspace["corpus"]),
                "--tagset", str(workspace["tagset"]), "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "m1")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "m2")]) == EXIT_OK
        assert read_model_files(tmp_path / "m1") == \
            read_model_files(tmp_path / "m2")


class TestLogLevel:
    RULE_LINE = re.compile(r"INFO tbltagger\.learner: (lexical|contextual) "
                           r"\d+ .* net=\d+ errors_remaining=\d+$")

    def _run(self, workspace, tmp_path, command, *extra):
        args = [command, "--corpus", str(workspace["corpus"]),
                "--tagset", str(workspace["tagset"]), *extra]
        if command == "train":
            args += ["--out", str(tmp_path / "m")]
        else:
            args += ["--k", "3", "--out", str(tmp_path / "out.csv")]
        if command == "curve":
            args += ["--sizes", "100,200"]
        return main(args)

    def test_train_logs_each_accepted_rule(self, workspace, tmp_path, capsys):
        assert self._run(workspace, tmp_path, "train",
                         "--log-level", "info") == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines and all(self.RULE_LINE.match(l) for l in lines), lines
        counts = dict(l.split(": ") for l in captured.out.splitlines())
        for phase in ("lexical", "contextual"):
            assert sum(1 for l in lines if ": %s " % phase in l) == \
                int(counts["%s rules" % phase])
        assert not logging.getLogger("tbltagger").handlers

    @pytest.mark.parametrize("command", ["crossval", "curve"])
    def test_evaluation_commands_log(self, workspace, tmp_path, capsys,
                                     command):
        assert self._run(workspace, tmp_path, command,
                         "--log-level", "INFO") == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(self.RULE_LINE.match(l) for l in lines), lines

    @pytest.mark.parametrize("command", ["train", "crossval", "curve"])
    def test_silent_by_default(self, workspace, tmp_path, capsys, command):
        assert self._run(workspace, tmp_path, command) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_warning_level_hides_rule_lines(self, workspace, tmp_path,
                                            capsys):
        assert self._run(workspace, tmp_path, "train",
                         "--log-level", "warning") == EXIT_OK
        assert capsys.readouterr().err == ""


class TestTag:
    def test_empty_input(self, workspace, tmp_path):
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.txt"
        infile.write_text("", encoding="utf-8")
        code = main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile)])
        assert code == EXIT_OK
        assert outfile.read_text(encoding="utf-8") == ""

    def test_output_parses_under_model_tagset(self, workspace, tmp_path):
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.txt"
        infile.write_text("το ζζζος ζζζη\nζζζει\n", encoding="utf-8")
        code = main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile)])
        assert code == EXIT_OK
        tagset = load_tagset(
            (workspace["model"] / "TAGSET").read_text(encoding="utf-8"))
        tagged = parse_tagged_corpus(outfile.read_text(encoding="utf-8"),
                                     tagset)
        assert len(tagged.sentences) == 2
        assert [t.word for t in tagged.sentences[0]] == ["το", "ζζζος", "ζζζη"]

    def test_known_word_gets_lexicon_tag(self, workspace, tmp_path):
        # pick a word from the corpus; with the trained model its tag must
        # come from the pipeline deterministically
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.txt"
        corpus_text = workspace["corpus"].read_text(encoding="utf-8")
        first_word = corpus_text.split()[0].rsplit("/", 1)[0]
        infile.write_text(first_word + "\n", encoding="utf-8")
        assert main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile)]) == EXIT_OK
        assert outfile.read_text(encoding="utf-8").startswith(first_word + "/")

    def test_unreadable_input_exits_3(self, workspace, tmp_path, capsys):
        code = main(["tag", "--model", str(workspace["model"]),
                     "--in", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "out.txt")])
        assert code == EXIT_IO

    def test_bad_byte_past_the_first_read_chunk(self, workspace, tmp_path,
                                                capsys):
        # the position is the byte's offset in the file, not in the read
        # chunk (8 KiB) that holds it; no output and no work entry is left
        infile = tmp_path / "in.txt"
        infile.write_bytes("το ζζζος\n".encode("utf-8") * 5000 + b"\xff")
        code = main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(tmp_path / "out.txt")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: %s is not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 80000: invalid start byte\n" % infile)
        assert os.listdir(tmp_path) == ["in.txt"]

    def test_invalid_model_exits_2(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken_model"
        broken.mkdir()
        infile = tmp_path / "in.txt"
        infile.write_text("x\n", encoding="utf-8")
        code = main(["tag", "--model", str(broken),
                     "--in", str(infile), "--out", str(tmp_path / "o.txt")])
        assert code == EXIT_CONFIG


    def test_non_object_manifest_exits_2(self, workspace, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        for name, data in read_model_files(workspace["model"]).items():
            (model / name).write_bytes(data)
        (model / "MANIFEST").write_text("[]\n", encoding="utf-8")
        infile = tmp_path / "in.txt"
        infile.write_text("x\n", encoding="utf-8")
        code = main(["tag", "--model", str(model),
                     "--in", str(infile), "--out", str(tmp_path / "o.txt")])
        assert code == EXIT_CONFIG
        assert "MANIFEST" in capsys.readouterr().err

    def test_failed_run_leaves_existing_output_untouched(
            self, workspace, tmp_path, monkeypatch):
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.txt"
        infile.write_text("ζζζος\nζζζη\nζζζει\n", encoding="utf-8")
        outfile.write_text("previous output\n", encoding="utf-8")
        real_tag_words = Tagger.tag_words
        calls = []

        def fail_on_second_sentence(tagger, words):
            calls.append(words)
            if len(calls) == 2:
                raise TaggerError("simulated failure")
            return real_tag_words(tagger, words)

        monkeypatch.setattr(Tagger, "tag_words", fail_on_second_sentence)
        code = main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile)])
        assert code == EXIT_CONFIG
        assert outfile.read_text(encoding="utf-8") == "previous output\n"
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt"]
        monkeypatch.undo()
        assert main(["tag", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile)]) == EXIT_OK
        assert len(outfile.read_text(encoding="utf-8").splitlines()) == 3
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt"]


@st.composite
def damaged_st(draw, data: bytes) -> bytes:
    """``data`` truncated, with bytes flipped, or with lines dropped, one
    to three times over."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "drop"]))
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "flip" and data:
            out = bytearray(data)
            for _ in range(draw(st.integers(1, 4))):
                out[draw(st.integers(0, len(out) - 1))] ^= draw(
                    st.integers(1, 255))
            data = bytes(out)
        elif kind == "drop" and data:
            lines = data.splitlines(keepends=True)
            dropped = draw(st.sets(st.integers(0, len(lines) - 1),
                                   min_size=1, max_size=3))
            data = b"".join(line for i, line in enumerate(lines)
                            if i not in dropped)
    return data


class TestCorruptModelFiles:
    """A model directory with a damaged file either loads or is refused
    with a TaggerError, and `tbltagger tag` exits 0 or 2 without raising."""

    @staticmethod
    def _load_and_tag(workspace, replaced):
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model"
            model.mkdir()
            for name, data in read_model_files(workspace["model"]).items():
                (model / name).write_bytes(replaced.get(name, data))
            infile = Path(tmp) / "in.txt"
            infile.write_text("το ζζζος Microsoft\nΆννα ζζζει x\n",
                              encoding="utf-8")
            try:
                load_model(str(model))
                error = None
            except TaggerError as exc:
                error = exc
            code = main(["tag", "--model", str(model), "--in", str(infile),
                         "--out", str(Path(tmp) / "out.txt")])
        return error, code

    @pytest.mark.parametrize("name", MODEL_FILES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_is_refused(self, workspace, name, data):
        original = read_model_files(workspace["model"])[name]
        damaged = data.draw(damaged_st(original))
        error, code = self._load_and_tag(workspace, {name: damaged})
        assert code == (EXIT_OK if error is None else EXIT_CONFIG)

    @pytest.mark.parametrize("name, data, error", [
        ("MANIFEST", b"[" * 100_000, ModelError),
        ("MANIFEST", b"format_version: 1\n", ModelError),
        ("MANIFEST", b'{"format_version": true}\n', ModelError),
        ("MANIFEST", b'{"format_version": 1.0}\n', ModelError),
        ("MANIFEST", b'{"format_version": 1' + b"0" * 5000 + b"}", ModelError),
        ("TAGSET", b"tag \xff\n", ParseError),
        ("LEXICON", "λέξη NNF:²\n".encode(), ParseError),
        ("LEXICON", "λέξη NNF:١\n".encode(), ParseError),
        ("LEXICON", b"x NNF:1" + b"0" * 5000 + b"\n", ParseError),
    ], ids=["deep-nesting", "not-json", "version-true", "version-float",
            "version-5001-digits", "not-utf8", "superscript-count",
            "arabic-indic-count", "5001-digit-count"])
    def test_damaged_file_refused(self, workspace, name, data, error, capsys):
        got, code = self._load_and_tag(workspace, {name: data})
        assert type(got) is error
        assert code == EXIT_CONFIG


class TestDamagedTagAndEvalInputs:
    """`tbltagger tag` and `eval` given a damaged raw, gold or model file
    exit with a documented code, raise nothing and finish in bounded
    time."""

    GOLD_SENTENCES = 8

    @pytest.mark.parametrize("target", ("raw", "gold") + MODEL_FILES)
    @settings(max_examples=40, deadline=timedelta(seconds=20))
    @given(data=st.data())
    def test_exit_code_is_documented(self, workspace, target, data):
        gold = "".join(workspace["corpus"].read_text(encoding="utf-8")
                       .splitlines(keepends=True)[:self.GOLD_SENTENCES])
        files = {"gold": gold.encode(), "raw": "".join(
            " ".join(item.rpartition("/")[0] for item in line.split()) + "\n"
            for line in gold.splitlines()).encode()}
        files.update(read_model_files(workspace["model"]))
        files[target] = data.draw(damaged_st(files[target]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "model").mkdir()
            for name, content in files.items():
                path = root / ("model" if name in MODEL_FILES else "") / name
                path.write_bytes(content)
            codes = [main(["tag", "--model", str(root / "model"),
                           "--in", str(root / "raw"),
                           "--out", str(root / "out")]),
                     main(["eval", "--model", str(root / "model"),
                           "--gold", str(root / "gold")])]
        assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}


# Small ints keep a generated corpus small; any JSON value may stand in
# for any field.
SMALL_INTS = st.integers(1, 12)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 12), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=2)),
    max_leaves=6)
SPEC_FIELDS = {
    "n_stems": SMALL_INTS,
    "n_sentences": SMALL_INTS,
    "seed": SMALL_INTS,
    "ambiguity_rate": st.floats(0, 1),
    "context_rule_strength": st.floats(0, 1),
    "sentence_len_range": st.lists(SMALL_INTS, min_size=2, max_size=2),
    "suffix_paradigms": st.lists(st.lists(st.text(min_size=1, max_size=3),
                                          min_size=2, max_size=2),
                                 min_size=1, max_size=3),
}


class TestDamagedTrainAndSynthInputs:
    """`tbltagger train` given a damaged corpus or tagset, and `synth`
    given a spec whose fields may hold any JSON type, exit with a
    documented code, raise nothing and finish in bounded time."""

    TRAIN_SENTENCES = 8

    @pytest.mark.parametrize("target", ["corpus", "tagset"])
    @settings(max_examples=25, deadline=timedelta(seconds=20))
    @given(data=st.data())
    def test_train_exit_code_is_documented(self, workspace, target, data):
        files = {"corpus": "".join(
            workspace["corpus"].read_text(encoding="utf-8")
            .splitlines(keepends=True)[:self.TRAIN_SENTENCES]).encode(),
            "tagset": workspace["tagset"].read_bytes()}
        files[target] = data.draw(damaged_st(files[target]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, content in files.items():
                (root / name).write_bytes(content)
            code = main(["train", "--corpus", str(root / "corpus"),
                         "--tagset", str(root / "tagset"),
                         "--out", str(root / "model")])
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}

    @settings(max_examples=60, deadline=timedelta(seconds=20))
    # a field mostly holds its own type, so that some specs are accepted
    @given(spec=st.fixed_dictionaries({}, optional={
        name: st.one_of(valid, valid, valid, JSON_VALUES)
        for name, valid in SPEC_FIELDS.items()}))
    def test_synth_exit_code_is_documented(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "spec.json").write_text(json.dumps(spec),
                                            encoding="utf-8")
            code = main(["synth", "--spec", str(root / "spec.json"),
                         "--out", str(root / "synth.txt")])
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}


class TestDamagedCrossvalAndCurveInputs:
    """`tbltagger crossval` and `curve` given a damaged corpus or tagset
    exit with a documented code, raise nothing and finish in bounded
    time."""

    SENTENCES = 12

    @pytest.mark.parametrize("command", ["crossval", "curve"])
    @pytest.mark.parametrize("target", ["corpus", "tagset"])
    @settings(max_examples=15, deadline=timedelta(seconds=20))
    @given(data=st.data())
    def test_exit_code_is_documented(self, workspace, command, target, data):
        files = {"corpus": "".join(
            workspace["corpus"].read_text(encoding="utf-8")
            .splitlines(keepends=True)[:self.SENTENCES]).encode(),
            "tagset": workspace["tagset"].read_bytes()}
        # most damage is refused at parsing; a whole file lets the folds
        # run on the drawn --k and --sizes
        files[target] = data.draw(st.one_of(damaged_st(files[target]),
                                            st.just(files[target])))
        k = data.draw(st.integers(2, 3))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, content in files.items():
                (root / name).write_bytes(content)
            argv = [command, "--corpus", str(root / "corpus"),
                    "--tagset", str(root / "tagset"), "--k", str(k),
                    "--jobs", "1", "--out", str(root / "report.csv")]
            if command == "curve":
                # word counts around the undamaged corpus's ~80 words
                sizes = data.draw(st.lists(st.integers(1, 120), min_size=1,
                                           max_size=2))
                argv += ["--sizes", ",".join(map(str, sizes))]
            code = main(argv)
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}


@contextlib.contextmanager
def chdir(path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# flag -> valid value, per subcommand; a value starting with "/" names a
# file or directory under the example's root
TRAIN_FLAGS = {"--threshold": "2", "--max-rules": "3",
               "--lexicon-split": "0.5", "--max-affix-len": "4",
               "--seed": "0", "--log-level": "warning"}
FLAG_VALUES = {
    "train": {"--corpus": "/corpus", "--tagset": "/tagset",
              "--out": "/out", **TRAIN_FLAGS},
    "tag": {"--model": "/model", "--in": "/raw", "--out": "/out"},
    "eval": {"--model": "/model", "--gold": "/corpus",
             "--confusion": "/out"},
    "crossval": {"--corpus": "/corpus", "--tagset": "/tagset", "--k": "3",
                 "--jobs": "1", "--out": "/out", **TRAIN_FLAGS},
    "curve": {"--corpus": "/corpus", "--tagset": "/tagset",
              "--sizes": "20,40", "--k": "3", "--jobs": "1",
              "--out": "/out", **TRAIN_FLAGS},
    "synth": {"--spec": "/spec", "--out": "/out", "--tagset-out": "/out2"},
}
# numbers out of range or of the wrong type, and text that is no number
BAD_VALUES = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str), st.floats().map(repr),
    st.sampled_from(["", "0", "1", "-1", "7", "100000", "1e400", "nan",
                     "-inf", "0x10", "1_0", "\u0663", ",", "1,,2", "10,5",
                     "2" * 30]),
    st.text(max_size=4))
# the other files of the example, an input where an output goes and the
# reverse, and paths that cannot be opened
BAD_PATHS = st.sampled_from(["/corpus", "/tagset", "/raw", "/spec",
                             "/model", "/dir", "/missing", "/missing/x",
                             "/corpus/x", "", "x\x00"])


class TestBadFlagValues:
    """Every flag of every subcommand, given a bad value, ends in a
    documented exit code with no traceback on stderr. The corpus holds 6
    sentences, so that `crossval`/`curve` start at most 6 processes
    whatever `--jobs` is."""

    SENTENCES = 6

    def _run(self, workspace, command, values):
        """(exit code, stderr) of ``command`` given these flag values, in a
        fresh directory holding the files the values name."""
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "corpus").write_text("".join(
                workspace["corpus"].read_text(encoding="utf-8")
                .splitlines(keepends=True)[:self.SENTENCES]),
                encoding="utf-8")
            (root / "tagset").write_bytes(workspace["tagset"].read_bytes())
            (root / "raw").write_text("το ζζζος\nζζζει\n", encoding="utf-8")
            (root / "spec").write_text('{"n_stems": 5, "n_sentences": 6}',
                                       encoding="utf-8")
            (root / "model").mkdir()
            for name, content in read_model_files(workspace["model"]).items():
                (root / "model" / name).write_bytes(content)
            (root / "dir").mkdir()
            (root / "dir" / "file").write_text("x\n", encoding="utf-8")
            argv = [command] + ["%s=%s" % (name, tmp + value
                                           if value.startswith("/") else value)
                                for name, value in values.items()]
            # relative paths, "" among them, stay inside the example
            with chdir(root / "dir"), \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        return code, err.getvalue()

    @pytest.mark.parametrize("command", FLAG_VALUES)
    def test_valid_values_exit_0(self, workspace, command):
        # so that a bad value in one flag is the only one
        assert self._run(workspace, command, FLAG_VALUES[command]) == \
            (EXIT_OK, "")

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FLAG_VALUES.items()
        for flag in flags])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, workspace, command, flag, data):
        values = dict(FLAG_VALUES[command])
        values[flag] = data.draw(BAD_PATHS if values[flag].startswith("/")
                                 else BAD_VALUES)
        code, err = self._run(workspace, command, values)
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}, values
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FLAG_VALUES.items()
        for flag, value in flags.items() if value.startswith("/")])
    def test_nul_in_a_path_exits_2_naming_it(self, workspace, command, flag):
        values = dict(FLAG_VALUES[command])
        values[flag] = "x\x00y"
        assert self._run(workspace, command, values) == (
            EXIT_CONFIG, "error: path 'x\\x00y' holds a NUL byte\n")


class TestEval:
    def test_perfect_model_prints_one(self, workspace, tmp_path, capsys):
        # evaluate against the model's own deterministic output
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "tagged.txt"
        infile.write_text("το ζζζος\n", encoding="utf-8")
        main(["tag", "--model", str(workspace["model"]),
              "--in", str(infile), "--out", str(outfile)])
        capsys.readouterr()
        code = main(["eval", "--model", str(workspace["model"]),
                     "--gold", str(outfile)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_confusion_csv_written(self, workspace, tmp_path, capsys):
        confusion = tmp_path / "confusion.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--gold", str(workspace["corpus"]),
                     "--confusion", str(confusion)])
        assert code == EXIT_OK
        text = confusion.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "gold_tag,predicted_tag,count"
        gold = parse_tagged_corpus(
            workspace["corpus"].read_text(encoding="utf-8"),
            load_tagset(workspace["tagset"].read_text(encoding="utf-8")))
        # one row per (gold, predicted) pair, the counts summing to the
        # corpus's tokens and the diagonal to the accuracy printed
        rows = [line.split(",") for line in lines[1:]]
        assert sum(int(count) for _, _, count in rows) == gold.word_count
        hits = sum(int(count) for gold_tag, tag, count in rows
                   if gold_tag == tag)
        assert capsys.readouterr().out == "%.6f\n" % (hits / gold.word_count)
        acc, want = accuracy(
            tag_corpus(strip_tags(gold), load_model(workspace["model"])), gold)
        assert text == render_confusion_csv(want)
        assert acc == hits / gold.word_count


class TestCommandsMatchTheLibrary:
    """`tag` and `eval` write, byte for byte, what the library's pipeline
    over ``Token`` corpora gives."""

    @given(tagging_cases_st(TAGGING_CHARS + "/"))
    @settings(max_examples=40, deadline=None)
    def test_tag_and_eval(self, case):
        # words and rule args hold "/", which the gold file's items split
        # at the last one; rules of all templates, unknown words
        model, other, first, second = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, name) for name in (
                "model", "raw", "tagged", "gold", "confusion")}
            save_model(model, paths["model"])
            loaded = load_model(paths["model"])
            text = "".join(" ".join(tok.word for tok in sent) + "\n"
                           for sent in first + second)
            Path(paths["raw"]).write_text(text, encoding="utf-8")
            assert main(["tag", "--model", paths["model"], "--in",
                         paths["raw"], "--out", paths["tagged"]]) == EXIT_OK
            assert Path(paths["tagged"]).read_text(encoding="utf-8") == \
                serialize_tagged_corpus(
                    tag_corpus(parse_raw_corpus(text), loaded))
            # gold from a model with other rules, so that tags differ
            gold_text = serialize_tagged_corpus(
                tag_corpus(parse_raw_corpus(text), other))
            Path(paths["gold"]).write_text(gold_text, encoding="utf-8")
            gold = parse_tagged_corpus(gold_text, loaded.tagset)
            acc, confusion = accuracy(tag_corpus(strip_tags(gold), loaded),
                                      gold)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["eval", "--model", paths["model"], "--gold",
                             paths["gold"], "--confusion",
                             paths["confusion"]]) == EXIT_OK
            assert out.getvalue() == "%.6f\n" % acc
            assert Path(paths["confusion"]).read_text(encoding="utf-8") == \
                render_confusion_csv(confusion)


class TestCrossval:
    def test_csv_structure(self, workspace, tmp_path, capsys):
        out = tmp_path / "folds.csv"
        code = main(["crossval", "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]),
                     "--k", "4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 4 + 1
        assert lines[0].startswith("fold_id,accuracy")
        assert lines[-1].startswith("mean,")

    @pytest.mark.parametrize("command", ["crossval", "curve"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2_naming_the_flag(self, workspace, capsys,
                                                   command, jobs):
        sizes = ["--sizes", "100"] if command == "curve" else []
        code = main([command, "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]), "--k", "3",
                     "--jobs", jobs] + sizes)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "--jobs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("crossval", []), ("curve", ["--sizes", "100"])])
    def test_fold_worker_refusal_exits_2(self, workspace, tmp_path, capsys,
                                         command, flags):
        # each of the two folds trains on one sentence, in a worker
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x/NNM y/NNF\nz/VRB\n", encoding="utf-8")
        code = main([command, "--corpus", str(corpus),
                     "--tagset", str(workspace["tagset"]), "--k", "2",
                     "--jobs", "2", "--out", str(tmp_path / "out.csv")]
                    + flags)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: need at least 2 sentences to split, got 1\n"
        assert not (tmp_path / "out.csv").exists()

    def test_deterministic_csv(self, workspace, tmp_path):
        args = ["crossval", "--corpus", str(workspace["corpus"]),
                "--tagset", str(workspace["tagset"]), "--k", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestCurve:
    def test_curve_csv(self, workspace, tmp_path):
        corpus_words = sum(
            len(l.split()) for l in
            workspace["corpus"].read_text(encoding="utf-8").splitlines())
        out = tmp_path / "curve.csv"
        sizes = "%d,%d" % (corpus_words // 2, corpus_words)
        code = main(["curve", "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]),
                     "--sizes", sizes, "--k", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("corpus_words,mean_accuracy")
        assert len(lines) == 3
        first, second = (int(l.split(",")[0]) for l in lines[1:])
        assert first <= second

    @pytest.mark.parametrize("sizes", ["abc", "100,x", ","])
    def test_bad_sizes_exit_2_naming_the_flag(self, sizes, workspace,
                                              capsys):
        code = main(["curve", "--corpus", str(workspace["corpus"]),
                     "--tagset", str(workspace["tagset"]),
                     "--sizes", sizes, "--k", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "--sizes" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["crossval", "curve"])
def test_seed_splits_folds_as_the_library_does(workspace, tmp_path, capsys,
                                               command):
    # --seed goes into the TrainConfig, whose seed also splits the folds;
    # the report goes to stdout, or to --out with crossval's summary line
    # on stdout
    corpus = parse_tagged_corpus(
        workspace["corpus"].read_text(encoding="utf-8"),
        load_tagset(workspace["tagset"].read_text(encoding="utf-8")))
    words = corpus.word_count
    sizes = [words // 2, words]

    def render(config):
        if command == "crossval":
            return render_folds_csv(cross_validate(corpus, 3, config))
        return render_report_csv(learning_curve(corpus, sizes, 3, config))

    expected = render(TrainConfig(seed=3))
    assert expected != render(TrainConfig())
    args = [command, "--corpus", str(workspace["corpus"]),
            "--tagset", str(workspace["tagset"]), "--k", "3", "--seed", "3"]
    if command == "curve":
        args += ["--sizes", "%d,%d" % tuple(sizes)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == expected
    out = tmp_path / "report.csv"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == expected
    summary = capsys.readouterr().out
    if command == "crossval":
        report = cross_validate(corpus, 3, TrainConfig(seed=3))
        assert summary == "mean accuracy: %.6f (stddev %.6f)\n" % (
            report.mean_accuracy, report.stddev_accuracy)
    else:
        assert summary == ""


@pytest.mark.parametrize("command", [
    ["train", "--out", "m"],
    ["crossval"],
    ["curve", "--sizes", "100"],
])
def test_train_flag_defaults_are_the_config_defaults(command):
    args = cli.build_parser().parse_args(
        command[:1] + ["--corpus", "c", "--tagset", "t"] + command[1:])
    assert cli._train_config(args) == TrainConfig()


class TestSynth:
    def test_generates_corpus_and_tagset(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_stems": 10, "n_sentences": 15, "seed": 3,
        }), encoding="utf-8")
        out = tmp_path / "synth.txt"
        code = main(["synth", "--spec", str(spec_path), "--out", str(out)])
        assert code == EXIT_OK
        tagset = load_tagset(
            (tmp_path / "synth.txt.tagset").read_text(encoding="utf-8"))
        corpus = parse_tagged_corpus(out.read_text(encoding="utf-8"), tagset)
        assert len(corpus.sentences) == 15

    def test_corpus_with_a_slash_suffix_trains(self, tmp_path, capsys):
        # the tag follows the last '/', so a suffix may end in one
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_stems": 3, "n_sentences": 3,
            "suffix_paradigms": [["a/", "X"], ["/", "Y"]],
        }), encoding="utf-8")
        out = tmp_path / "synth.txt"
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(out)]) == EXIT_OK
        assert main(["train", "--corpus", str(out),
                     "--tagset", str(tmp_path / "synth.txt.tagset"),
                     "--out", str(tmp_path / "model")]) == EXIT_OK

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"no_such_field": 1}', encoding="utf-8")
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "x.txt")])
        assert code == EXIT_CONFIG

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json", encoding="utf-8")
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "x.txt")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "error: synthetic spec is not valid JSON: ")

    @pytest.mark.parametrize("spec, named", [
        ('{"suffix_paradigms": 7}', "suffix_paradigms"),
        ('{"sentence_len_range": 5}', "sentence_len_range"),
        ('{"n_sentences": 2.5}', "n_sentences"),
        # float inf, and one stem more than there are: the generator
        # would draw stems for ever
        ('{"n_stems": 1e400}', "n_stems"),
        ('{"n_stems": 199411201}', "n_stems"),
        ('{"n_stems": "5"}', "n_stems"),
        ('{"n_stems": true}', "n_stems"),
        ('{"seed": 1.5}', "seed"),
        ('{"ambiguity_rate": "0.3"}', "ambiguity_rate"),
        ('{"context_rule_strength": NaN}', "context_rule_strength"),
        ('{"suffix_paradigms": [["ος"]]}', "suffix_paradigms"),
        ('{"suffix_paradigms": [["ος", 3]]}', "suffix_paradigms"),
        ('{"sentence_len_range": [4, 9.5]}', "sentence_len_range"),
        ('[1]', "spec"),
        ('5', "spec"),
        ('[' * 100000, "spec"),
        # a suffix ends a written token: whitespace would split it, and
        # UTF-8 cannot encode a lone surrogate
        ('{"suffix_paradigms": [["a b", "X"], ["/", "Y"]]}',
         "suffix_paradigms"),
        ('{"suffix_paradigms": [["ος", "X"], ["\\u2028", "Y"]]}',
         "suffix_paradigms"),
        ('{"suffix_paradigms": [["\\udc36", "X"]]}', "suffix_paradigms"),
        ('{"suffix_paradigms": [["", "X"]]}', "suffix_paradigms"),
        ('{"suffix_paradigms": [["ος", "X"], ["η", "X"]]}',
         "suffix_paradigms"),
    ], ids=["paradigms-int", "length-range-int", "sentences-float",
            "stems-inf", "stems-too-many", "stems-str", "stems-bool",
            "seed-float", "rate-str", "rate-nan", "paradigm-short",
            "paradigm-tag-int", "length-float", "not-object-array",
            "not-object-int", "too-deep", "suffix-space",
            "suffix-line-separator", "suffix-surrogate", "suffix-empty",
            "tags-repeated"])
    def test_ill_typed_spec_exits_2_naming_the_field(self, spec, named,
                                                     tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec, encoding="utf-8")
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err


class TestAlignmentExit:
    def test_eval_alignment_error_exits_4(self, workspace, tmp_path, capsys):
        # gold file with an empty sentence set still parses; misalign by
        # feeding a gold corpus whose tagging run would raise is hard to
        # stage here, so exercise the mapping through an empty gold corpus
        gold = tmp_path / "gold.txt"
        gold.write_text("", encoding="utf-8")
        code = main(["eval", "--model", str(workspace["model"]),
                     "--gold", str(gold)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: cannot compute accuracy on an empty corpus\n"


def umask_changed(mask):
    raise AssertionError("os.umask(0o%o) called" % mask)


@contextlib.contextmanager
def umask(mask, frozen=False):
    """Run the body under the umask ``mask``, then restore the old one.
    With ``frozen``, the body may not call ``os.umask``: a command that
    sets it, even for a moment, gives the wrong mode to a file that another
    thread of the process creates meanwhile."""
    old = os.umask(mask)
    try:
        with pytest.MonkeyPatch.context() as patch:
            if frozen:
                patch.setattr(os, "umask", umask_changed)
            yield
    finally:
        os.umask(old)


def mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestOutputModes:
    """What the commands write gets the mode that mkdir() (a directory) and
    open() (a file) give under the caller's umask."""

    @pytest.fixture(scope="class",
                    params=[(0o022, False), (0o027, False), (0o027, True)],
                    ids=["umask-022", "umask-027", "umask-027-frozen"])
    def outputs(self, request, tmp_path_factory):
        """(umask, paths) after synth, train, tag, eval --confusion,
        crossval --out and curve --out have run under the umask, which
        with "frozen" no command may change."""
        mask, frozen = request.param
        root = tmp_path_factory.mktemp("modes")
        paths = {name: str(root / name) for name in (
            "corpus", "tagset", "raw", "model", "tagged", "confusion",
            "folds", "curve")}
        spec = root / "spec.json"
        spec.write_text(json.dumps({"n_stems": 10, "n_sentences": 30,
                                    "seed": 2}), encoding="utf-8")
        data = ["--corpus", paths["corpus"], "--tagset", paths["tagset"]]
        with umask(mask, frozen), contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--spec", str(spec), "--out",
                         paths["corpus"], "--tagset-out",
                         paths["tagset"]]) == EXIT_OK
            corpus = Path(paths["corpus"]).read_text(encoding="utf-8")
            Path(paths["raw"]).write_text(re.sub(r"/\S+", "", corpus),
                                          encoding="utf-8")
            words = len(corpus.split())
            for argv in (
                    ["train", *data, "--out", paths["model"]],
                    ["tag", "--model", paths["model"], "--in", paths["raw"],
                     "--out", paths["tagged"]],
                    ["eval", "--model", paths["model"], "--gold",
                     paths["corpus"], "--confusion", paths["confusion"]],
                    ["crossval", *data, "--k", "3", "--out", paths["folds"]],
                    ["curve", *data, "--k", "3", "--sizes",
                     "%d,%d" % (words // 2, words), "--out", paths["curve"]]):
                assert main(argv) == EXIT_OK, argv
        return mask, paths

    def test_model_directory_gets_the_mkdir_mode(self, outputs):
        mask, paths = outputs
        assert mode(paths["model"]) == 0o777 & ~mask

    def test_files_get_the_open_mode(self, outputs):
        mask, paths = outputs
        written = [paths[name] for name in (
            "corpus", "tagset", "tagged", "confusion", "folds", "curve")]
        written += [os.path.join(paths["model"], name)
                    for name in MODEL_FILES]
        assert {path: mode(path) for path in written} == \
            dict.fromkeys(written, 0o666 & ~mask)


class TestBadOutputPaths:
    """An output that cannot be written exits 3 with the OSError of the
    path as the user gave it, in a directory holding ``sub/`` and
    ``f.txt``: no command makes a missing directory, leaves a work entry
    or touches an existing target."""

    @pytest.mark.parametrize("argv, message", [
        (["tag", "--model", "@model", "--in", "@raw", "--out", "sub"],
         "[Errno 21] Is a directory: 'sub'"),
        (["tag", "--model", "@model", "--in", "@raw",
          "--out", "missing/x.txt"],
         "[Errno 2] No such file or directory: 'missing/x.txt'"),
        (["train", "--corpus", "@corpus", "--tagset", "@tagset",
          "--out", "f.txt"],
         "[Errno 20] Not a directory: 'f.txt'"),
        (["train", "--corpus", "@corpus", "--tagset", "@tagset",
          "--out", "missing/m"],
         "[Errno 2] No such file or directory: 'missing/m'"),
        (["eval", "--model", "@model", "--gold", "@corpus",
          "--confusion", "missing/c.csv"],
         "[Errno 2] No such file or directory: 'missing/c.csv'"),
        (["crossval", "--corpus", "@corpus", "--tagset", "@tagset",
          "--k", "3", "--out", "missing/f.csv"],
         "[Errno 2] No such file or directory: 'missing/f.csv'"),
        (["synth", "--spec", "@spec", "--out", "missing/c.txt"],
         "[Errno 2] No such file or directory: 'missing/c.txt'"),
        (["synth", "--spec", "@spec", "--out", "c.txt",
          "--tagset-out", "missing/t.txt"],
         "[Errno 2] No such file or directory: 'missing/t.txt'"),
    ], ids=["tag-directory", "tag-missing", "train-file", "train-missing",
            "eval-missing", "crossval-missing", "synth-missing",
            "synth-tagset-missing"])
    def test_exits_3_naming_the_path(self, workspace, tmp_path, capsys,
                                     argv, message):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        raw = inputs / "raw.txt"
        raw.write_text("το ζζζος\nζζζει\n", encoding="utf-8")
        spec = inputs / "spec.json"
        spec.write_text('{"n_stems": 5, "n_sentences": 6}', encoding="utf-8")
        files = {"@model": workspace["model"], "@corpus": workspace["corpus"],
                 "@tagset": workspace["tagset"], "@raw": raw, "@spec": spec}
        cwd = tmp_path / "cwd"
        (cwd / "sub").mkdir(parents=True)
        (cwd / "f.txt").write_text("keep me\n", encoding="utf-8")
        with chdir(cwd):
            code = main([str(files.get(arg, arg)) for arg in argv])
        assert (code, capsys.readouterr().err) == \
            (EXIT_IO, "error: %s\n" % message)
        assert sorted(os.listdir(cwd)) == ["f.txt", "sub"]
        assert os.listdir(cwd / "sub") == []
        assert (cwd / "f.txt").read_text(encoding="utf-8") == "keep me\n"


class TestWritesGoThroughWorkDir:
    def test_every_write_is_inside_a_work_directory(self, tmp_path,
                                                    monkeypatch):
        # every file opened for writing and every directory made lies in
        # a .tbltagger-* directory beside the outputs (or is one), and no
        # command makes a directory tree
        root = tmp_path / "out"
        root.mkdir()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_stems": 10, "n_sentences": 30,
                                    "seed": 2}), encoding="utf-8")
        paths = {name: str(root / name) for name in (
            "corpus", "tagset", "raw", "model", "tagged", "confusion",
            "folds", "curve")}
        written, made, trees = [], [], []
        real_open, real_mkdir = open, os.mkdir

        def recording_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                written.append(file)
            return real_open(file, mode, *args, **kwargs)

        def recording_mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        def run(argv):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(builtins, "open", recording_open)
                patch.setattr(os, "mkdir", recording_mkdir)
                patch.setattr(os, "makedirs",
                              lambda *args, **kwargs: trees.append(args))
                assert main(argv) == EXIT_OK, argv

        data = ["--corpus", paths["corpus"], "--tagset", paths["tagset"]]
        with contextlib.redirect_stdout(io.StringIO()):
            run(["synth", "--spec", str(spec), "--out", paths["corpus"],
                 "--tagset-out", paths["tagset"]])
            corpus = Path(paths["corpus"]).read_text(encoding="utf-8")
            Path(paths["raw"]).write_text(re.sub(r"/\S+", "", corpus),
                                          encoding="utf-8")
            words = len(corpus.split())
            for argv in (
                    ["train", *data, "--out", paths["model"]],
                    ["train", *data, "--out", paths["model"]],
                    ["tag", "--model", paths["model"], "--in", paths["raw"],
                     "--out", paths["tagged"]],
                    ["eval", "--model", paths["model"], "--gold",
                     paths["corpus"], "--confusion", paths["confusion"]],
                    ["crossval", *data, "--k", "3", "--out", paths["folds"]],
                    ["curve", *data, "--k", "3", "--sizes",
                     "%d,%d" % (words // 2, words), "--out", paths["curve"]]):
                run(argv)
        # synth's two files, then tag, eval, crossval and curve one each;
        # each train writes the five model files into a directory it made
        assert len(written) == 2 + 2 * len(MODEL_FILES) + 4
        assert len(made) == 2 + 2 * 2 + 4
        assert trees == []
        for path in written + made:
            parts = Path(path).relative_to(root).parts
            assert parts[0].startswith(".tbltagger-"), path
        for path in written:
            assert len(Path(path).relative_to(root).parts) > 1, path
        assert sorted(os.listdir(root)) == sorted(paths)


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector enabled or not, then restore
    the state it had."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def cyclic_garbage(argvs):
    """The objects that the commands ``argvs`` leave in reference cycles,
    found by a collection under DEBUG_SAVEALL once they have all run."""
    gc.collect()
    flags, saved = gc.get_debug(), gc.garbage[:]
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert main(argv) == EXIT_OK, argv
        gc.collect()
        return gc.garbage[:]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved


class TestCollectorPause:
    """`main` runs each command with the cyclic collector paused and gives
    the caller back the collector in the state it left it."""

    @staticmethod
    def commands(root, n_sentences):
        """train, tag, eval, crossval and curve on a corpus of
        ``n_sentences`` written under ``root``."""
        corpus = generate_synthetic_corpus(
            mini_spec(2, n_sentences=n_sentences))
        root.mkdir()
        files = {name: str(root / name) for name in (
            "corpus", "tagset", "raw", "model", "tagged", "folds", "curve")}
        Path(files["corpus"]).write_text(serialize_tagged_corpus(corpus),
                                         encoding="utf-8")
        Path(files["tagset"]).write_text(serialize_tagset(corpus.tagset),
                                         encoding="utf-8")
        Path(files["raw"]).write_text("".join(
            " ".join(tok.word for tok in sent) + "\n"
            for sent in corpus.sentences), encoding="utf-8")
        data = ["--corpus", files["corpus"], "--tagset", files["tagset"]]
        words = corpus.word_count
        return [
            ["train", *data, "--out", files["model"]],
            ["tag", "--model", files["model"], "--in", files["raw"],
             "--out", files["tagged"]],
            ["eval", "--model", files["model"], "--gold", files["corpus"]],
            ["crossval", *data, "--k", "3", "--jobs", "1",
             "--out", files["folds"]],
            ["curve", *data, "--k", "3", "--sizes",
             "%d,%d" % (words // 2, words), "--out", files["curve"]],
        ]

    def test_commands_leave_no_cycles_of_their_own(self, tmp_path):
        # the premise of the pause: a collection during a command would
        # free only the cycles of argparse and json, whatever the corpus
        counts = []
        for n_sentences in (20, 100):
            with collector(True):
                garbage = cyclic_garbage(
                    self.commands(tmp_path / str(n_sentences), n_sentences))
            ours = {type(o).__qualname__ for o in garbage
                    if type(o).__module__.partition(".")[0] == "tbltagger"}
            assert not ours
            counts.append(len(garbage))
            del garbage
        # about 1,900 objects either way; whether the list of the top
        # parser's mutually exclusive groups is among them varies between
        # runs, while a cycle per sentence would add 80 or more
        assert abs(counts[0] - counts[1]) <= 1, counts

    def test_command_runs_paused(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_synth",
                            lambda args: seen.append(gc.isenabled()))
        with collector(True):
            main(["synth", "--spec", "s", "--out", "o"])
        assert seen == [False]

    @pytest.fixture
    def exits(self, workspace, tmp_path, monkeypatch):
        """argv -> the exit each documented way out of `main` ends in: a
        return code, or the exception it raises."""
        model, corpus = str(workspace["model"]), str(workspace["corpus"])
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")

        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_synth", boom)
        return [
            (["eval", "--model", model, "--gold", corpus], EXIT_OK),
            (["crossval", "--corpus", corpus,
              "--tagset", str(workspace["tagset"]), "--jobs", "0"],
             EXIT_CONFIG),
            (["eval", "--model", model, "--gold", str(tmp_path / "no")],
             EXIT_IO),
            (["eval", "--model", model, "--gold", str(empty)], EXIT_DATA),
            (["train", "--no-such-flag"], SystemExit),
            (["synth", "--spec", "s", "--out", "o"], RuntimeError),
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_exit_restores_the_callers_state(self, exits, enabled,
                                                   capsys):
        for argv, want in exits:
            with collector(enabled):
                if isinstance(want, int):
                    assert main(argv) == want, argv
                else:
                    with pytest.raises(want):
                        main(argv)
                assert gc.isenabled() == enabled, argv
