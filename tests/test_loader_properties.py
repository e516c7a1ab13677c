"""Property tests: every loader either loads or raises a DataError that
names the file, and the CLI keeps its exit-code contract, on arbitrary
bytes, truncated fixture files and fixture files with one token
replaced by random text. Every writer reproduces the fixture its loader
read, and every CSV table reads back cell for cell."""

import codecs
import contextlib
import csv
import io
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtlens.align import read_pharaoh
from mtlens.cli import main
from mtlens.corpus import load_corpus, load_run, save_corpus
from mtlens.errors import DataError
from mtlens.report import emit_csv, format_value
from mtlens.semsim import load_embeddings, save_embeddings
from mtlens.series import MetricSeries, SeriesPoint
from mtlens.transformer import init_model, load_model, load_vocab, save_model, save_vocab

import loader_oracle
from conftest import DATA_DIR

RUN = DATA_DIR / "run3"
PHARAOH = b"0-0 1-1 2-3 3-2\n0-1 1-0\n\n0-0 2-2 3-3\n"

FIXTURES = {
    "corpus": (load_corpus, (RUN / "ref.txt").read_bytes()),
    "pharaoh": (read_pharaoh, PHARAOH),
    "embeddings": (load_embeddings, (DATA_DIR / "emb3" / "ref.emb").read_bytes()),
    "model": (load_model, (DATA_DIR / "fixture.wts").read_bytes()),
    "vocab": (load_vocab, (DATA_DIR / "vocab.txt").read_bytes()),
}

RUN_FILES = ("src.txt", "ref.txt", "checkpoints/000200/hyp.txt")

PROPERTY = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mutated(data: bytes):
    """Arbitrary bytes, a prefix of data, or data with one token replaced."""
    spans = [m.span() for m in re.finditer(rb"\S+", data)]
    replaced = st.tuples(st.sampled_from(spans), st.text(max_size=12)).map(
        lambda t: data[: t[0][0]] + t[1].encode("utf-8") + data[t[0][1] :]
    )
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(data)).map(lambda n: data[:n]),
        replaced,
    )


def loads_or_names(loader, path):
    try:
        loader(path)
    except DataError as exc:
        assert str(path) in str(exc)


@contextlib.contextmanager
def scratch_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def copy_run(root: Path, rel: str, data: bytes) -> Path:
    run = root / "run"
    shutil.copytree(RUN, run)
    (run / rel).write_bytes(data)
    return run


@pytest.mark.parametrize("kind", sorted(FIXTURES))
@PROPERTY
@given(data=st.data())
def test_loader_loads_or_names_file(kind, data):
    loader, fixture = FIXTURES[kind]
    with scratch_dir() as root:
        path = root / f"input.{kind}"
        path.write_bytes(data.draw(mutated(fixture)))
        loads_or_names(loader, path)


def loaded(loader, path):
    """What loader read from path, in a form that == compares, or its error's text."""
    try:
        got = loader(path)
    except DataError as exc:
        return str(exc).replace(str(path), "PATH")
    return (got.vectors.shape, got.vectors.tobytes()) if hasattr(got, "vectors") else got


@pytest.mark.parametrize("kind", ["corpus", "embeddings", "vocab"])
@PROPERTY
@given(data=st.data())
def test_a_byte_order_mark_loads_as_the_plain_file(kind, data):
    loader, fixture = FIXTURES[kind]
    drawn = data.draw(mutated(fixture).filter(lambda b: not b.startswith(codecs.BOM_UTF8)))
    with scratch_dir() as root:
        plain, marked = root / "plain", root / "marked"
        for text in (fixture, drawn):
            plain.write_bytes(text)
            marked.write_bytes(codecs.BOM_UTF8 + text)
            got, want = loaded(loader, marked), loaded(loader, plain)
            assert got == want
            assert text != fixture or not isinstance(want, str)  # the fixture loads


@PROPERTY
@given(data=st.data())
def test_load_run_loads_or_names_file(data):
    rel = data.draw(st.sampled_from(RUN_FILES))
    with scratch_dir() as root:
        run = copy_run(root, rel, data.draw(mutated((RUN / rel).read_bytes())))
        try:
            load_run(run)
        except DataError as exc:
            assert str(run / rel) in str(exc)


HYP = str(RUN / "checkpoints" / "000200" / "hyp.txt")
REF = str(RUN / "ref.txt")

# kind -> argv running the CLI on the file of that kind, BAD standing for
# it; lrp reads ONE, a one-sentence corpus, to keep each example cheap
CLI_CASES = {
    "corpus": ["bleu", "BAD", REF],
    "pharaoh": ["frs", "--align", "BAD", HYP, REF],
    "embeddings": ["rmss", "--k", "2", "BAD", str(DATA_DIR / "emb3" / "src.emb")],
    "model": ["lrp", "--model", "BAD", "--vocab", str(DATA_DIR / "vocab.txt"), "ONE", "ONE"],
    "vocab": ["lrp", "--model", str(DATA_DIR / "fixture.wts"), "--vocab", "BAD", "ONE", "ONE"],
}


def run_main(argv):
    # stdout encodes as entry() sets it up: strict UTF-8
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", sorted(FIXTURES))
@PROPERTY
@given(data=st.data())
def test_cli_exit_code_contract(kind, data):
    with scratch_dir() as root:
        paths = {"BAD": root / "bad.input", "ONE": root / "one.txt"}
        paths["BAD"].write_bytes(data.draw(mutated(FIXTURES[kind][1])))
        paths["ONE"].write_text("ka re mi\n", encoding="utf-8")
        code, err = run_main([str(paths.get(a, a)) for a in CLI_CASES[kind]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@PROPERTY
@given(data=st.data())
def test_cli_report_exit_code_contract(data):
    rel = data.draw(st.sampled_from(RUN_FILES))
    with scratch_dir() as root:
        run = copy_run(root, rel, data.draw(mutated((RUN / rel).read_bytes())))
        code, err = run_main(["report", str(run), "--iters", "2", "--out", str(root / "o.json")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("side, other", [("ref", "src"), ("src", "ref")])
@PROPERTY
@given(data=st.data())
def test_cli_report_reads_only_the_embeddings_its_metrics_need(side, other, data):
    # rmss-vs-<side> gives the same series and notes whatever <other>.emb holds
    argv = ["report", str(RUN), "--metrics", f"rmss-vs-{side}", "--k", "2", "--embeddings"]
    with scratch_dir() as root:
        emb = root / "emb"
        shutil.copytree(DATA_DIR / "emb3", emb)
        want = run_main(argv + [str(emb), "--csv", str(root / "want.csv"), "--out", str(root / "o")])
        other_emb = emb / f"{other}.emb"
        other_emb.write_bytes(data.draw(mutated(other_emb.read_bytes())))
        got = run_main(argv + [str(emb), "--csv", str(root / "got.csv"), "--out", str(root / "o")])
        assert got == want
        assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()


# lines appended to fixture.wts that the loader cannot place, and the reason
# the one error line gives for the first of them, line 763
WEIGHT_EDITS = {
    "repeated array": (
        "array dec0_cross_bk 16\n" + "1 " * 15 + "1\n", "repeated array 'dec0_cross_bk'"
    ),
    "repeated header key": ("heads 2\n", "repeated header key 'heads'"),
    "unknown header key": ("colour 3\n", "unknown header key 'colour'"),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_EDITS))
def test_cli_refuses_weights_the_loader_cannot_place(case, tmp_path):
    appended, reason = WEIGHT_EDITS[case]
    model, one = tmp_path / "model.wts", tmp_path / "one.txt"
    model.write_bytes((DATA_DIR / "fixture.wts").read_bytes() + appended.encode("utf-8"))
    one.write_text("ka re mi\n", encoding="utf-8")
    code, err = run_main([str(model if a == "BAD" else one if a == "ONE" else a)
                          for a in CLI_CASES["model"]])
    assert (code, err) == (2, f"error: {model}: line 763: {reason}\n")


# first lines of a weight file other than "mtlens-weights 1", each refused at line 1
WEIGHT_FIRST_LINES = ("mtlens-weights 99", "mtlens-weights 2", "mtlens-weights",
                      "mtlens-weights 1 0", "mtlens-weights 01", "weights 1", "")


@pytest.mark.parametrize("first", WEIGHT_FIRST_LINES)
def test_cli_refuses_a_weight_file_version_other_than_1(first, tmp_path):
    model, one = tmp_path / "model.wts", tmp_path / "one.txt"
    text = (DATA_DIR / "fixture.wts").read_text(encoding="utf-8")
    model.write_text(first + text[text.index("\n"):], encoding="utf-8")
    one.write_text("ka re mi\n", encoding="utf-8")
    code, err = run_main([str(model if a == "BAD" else one if a == "ONE" else a)
                          for a in CLI_CASES["model"]])
    want = f"error: {model}: line 1: not a version 1 weight file (want 'mtlens-weights 1')\n"
    assert (code, err) == (2, want)


# the last line of vocab.txt, line 24, replaced by a token that an earlier line lists
@pytest.mark.parametrize("token, line", [("ka", 5), ("<unk>", 3)])
def test_cli_refuses_a_repeated_vocab_token(token, line, tmp_path):
    vocab, one = tmp_path / "vocab.txt", tmp_path / "one.txt"
    lines = (DATA_DIR / "vocab.txt").read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(lines[:-1] + [token]) + "\n", encoding="utf-8")
    one.write_text("ka re mi\n", encoding="utf-8")
    code, err = run_main([str(vocab if a == "BAD" else one if a == "ONE" else a)
                          for a in CLI_CASES["vocab"]])
    assert (code, err) == (2, f"error: {vocab}: line 24: token {token!r} repeats line {line}\n")


# vocab.txt with its reserved lines 1-4 edited: (edit, first wrong line, its token, reserved token)
RESERVED_EDITS = {
    "a word on line 1": (lambda lines: ["the"] + lines[1:], 1, "the", "<bos>"),
    "no reserved lines": (lambda lines: lines[4:], 1, "ka", "<bos>"),
    "unk and pad swapped": (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
                            3, "<pad>", "<unk>"),
    "pad dropped": (lambda lines: lines[:3] + lines[4:], 4, "ka", "<pad>"),
}


@pytest.mark.parametrize("case", sorted(RESERVED_EDITS))
def test_cli_refuses_a_vocab_without_the_reserved_lines(case, tmp_path):
    # ids 0-3 are BOS, EOS, UNK and PAD whatever the file says, so a word
    # on one of those lines would be encoded as that id
    edit, line, token, reserved = RESERVED_EDITS[case]
    vocab, one = tmp_path / "vocab.txt", tmp_path / "one.txt"
    lines = (DATA_DIR / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert lines[:4] == ["<bos>", "<eos>", "<unk>", "<pad>"] and lines[4] == "ka"
    vocab.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    one.write_text("ka re mi\n", encoding="utf-8")
    code, err = run_main([str(vocab if a == "BAD" else one if a == "ONE" else a)
                          for a in CLI_CASES["vocab"]])
    want = f"error: {vocab}: line {line}: token {token!r} where {reserved!r} is reserved\n"
    assert (code, err) == (2, want)


# vocab.txt (24 tokens, as many as fixture.wts embeds) with words appended, its last
# dropped, or blank lines appended
VOCAB_SIZE_CASES = {
    "lrp": ["lrp", "--model", "MODEL", "--vocab", "VOCAB", f"{RUN}/src.txt", f"{RUN}/ref.txt"],
    "report": ["report", str(RUN), "--model", "MODEL", "--vocab", "VOCAB",
               "--metrics", "src-entropy", "--out", "OUT"],
}


@pytest.mark.parametrize("case", sorted(VOCAB_SIZE_CASES))
@pytest.mark.parametrize("extra", [40, 1, -1, "trailing blank lines"])
def test_cli_refuses_a_vocab_larger_than_the_model(case, extra, tmp_path):
    # run3's words all sit in vocab.txt's first 24 lines, so no appended id is ever
    # looked up, and only the sizes can tell that the model cannot embed them
    vocab, model = tmp_path / "vocab.txt", DATA_DIR / "fixture.wts"
    lines = (DATA_DIR / "vocab.txt").read_text(encoding="utf-8").splitlines()
    if extra == "trailing blank lines":  # they are not tokens, as in an embedding file
        lines += ["", " \t", ""]
    else:
        lines = lines + [f"extra{i}" for i in range(extra)] if extra > 0 else lines[:extra]
    vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths = {"MODEL": model, "VOCAB": vocab, "OUT": tmp_path / "out.json"}
    code, err = run_main([str(paths.get(a, a)) for a in VOCAB_SIZE_CASES[case]])
    if extra == "trailing blank lines" or extra < 0:
        assert (code, err) == (0, "")
    else:
        want = f"error: {vocab} holds {24 + extra} tokens, but {model} embeds only 24\n"
        assert (code, err) == (2, want)


# argv with BAD for a copy of run3 whose checkpoint 000100 is named b"\xff100",
# BAD_KIND for a copy of run3 named b"\xff", and OUT for an output file
NON_UTF8_CASES = {
    "report --csv": (["report", "BAD", "--csv", "OUT"], 2),
    "report --svg": (["report", "BAD", "--svg", "OUT"], 2),
    "report --out": (["report", "BAD", "--out", "OUT"], 2),
    "robust clean": (["robust", "--clean", "BAD", "--perturbed", f"r={RUN}"], 2),
    "robust clean --out": (
        ["robust", "--clean", "BAD", "--perturbed", f"r={RUN}", "--out", "OUT"], 2
    ),
    "robust perturbed": (["robust", "--clean", str(RUN), "--perturbed", "BAD"], 2),
    "robust kind": (["robust", "--clean", str(RUN), "--perturbed", f"\udcff={RUN}"], 1),
    "robust kind --out": (
        ["robust", "--clean", str(RUN), "--perturbed", f"\udcff={RUN}", "--out", "OUT"], 1
    ),
    "robust basename kind": (["robust", "--clean", str(RUN), "--perturbed", "BAD_KIND"], 1),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_CASES))
def test_cli_refuses_names_that_are_not_utf8(case, tmp_path):
    argv, want = NON_UTF8_CASES[case]
    bad = tmp_path / "bad"
    paths = {"BAD": bad, "BAD_KIND": tmp_path / os.fsdecode(b"\xff"), "OUT": tmp_path / "out"}
    if os.fsdecode(b"\xff") != "\udcff":
        pytest.skip("file names are not decoded as UTF-8")
    try:  # argv and os.listdir decode a byte that is not UTF-8 to a lone surrogate
        shutil.copytree(RUN, paths["BAD_KIND"])
        shutil.copytree(RUN, bad)
        os.rename(bad / "checkpoints" / "000100", bad / "checkpoints" / os.fsdecode(b"\xff100"))
    except OSError as exc:
        pytest.skip(f"the file system refuses a name that is not UTF-8: {exc}")
    for old in (None, b"kept\n"):  # no output file is created or truncated
        if old is not None:
            paths["OUT"].write_bytes(old)
        code, err = run_main([str(paths.get(a, a)) for a in argv])
        assert code == want
        assert err.startswith("error: ") and err.count("\n") == 1 and "not valid UTF-8" in err
        assert (paths["OUT"].read_bytes() if paths["OUT"].exists() else None) == old


# -- the block parser against the float() row parsers -------------------------


def _replace(line, i, text):
    tokens = line.split(" ")
    tokens[i % len(tokens)] = text
    return " ".join(tokens)


# edits of one value row: each makes np.loadtxt fail, skip a row or read
# a value that float() reads too, so the loaders must fall back or agree
ROW_EDITS = (
    lambda line, i: _replace(line, i, "1_0"),
    lambda line, i: _replace(line, i, "0.2_5e1"),
    lambda line, i: _replace(line, i, "\u0663.5"),  # ARABIC-INDIC DIGIT THREE
    lambda line, i: _replace(line, i, "\uff17"),  # FULLWIDTH DIGIT SEVEN
    lambda line, i: line.replace(" ", "\xa0", 1 + i % 3),
    lambda line, i: line.replace(" ", "\u2003\x1c", 1),
    lambda line, i: "",
    lambda line, i: " ".join(line.split(" ")[:-1]),
    lambda line, i: line + " 0.5",
    lambda line, i: _replace(line, i, "#"),
    lambda line, i: "#" + line,
    lambda line, i: _replace(line, i, ("nan", "-inf", "Infinity", "1e999")[i % 4]),
    lambda line, i: _replace(line, i, "-0.0"),
    lambda line, i: "\t" + line.replace(" ", "  ") + " \v",
)


def tiny_weights() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.wts"
        save_model(init_model(layers=1, heads=1, dim=4, ffn=4, vocab_size=6, seed=5), path)
        return path.read_bytes()


def is_weight_row(line: str) -> bool:
    return bool(line) and line.split()[0] not in (
        "mtlens-weights", "layers", "heads", "dim", "ffn", "vocab", "array"
    )


BLOCK_CASES = {
    "model": (load_model, loader_oracle.load_model, tiny_weights(), is_weight_row),
    "embeddings": (
        load_embeddings,
        loader_oracle.load_embeddings,
        (DATA_DIR / "emb3" / "ref.emb").read_bytes(),
        lambda line: bool(line) and len(line.split()) != 2,
    ),
}


@st.composite
def edited(draw, data: bytes, is_row):
    lines = data.decode("utf-8").split("\n")
    rows = [k for k, line in enumerate(lines) if is_row(line)]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(rows))
        lines[k] = draw(st.sampled_from(ROW_EDITS))(lines[k], draw(st.integers(0, 50)))
    out = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        out = out[: draw(st.integers(0, len(out)))]
    return out


def outcome(loader, path):
    """Every array's shape and bits, or the DataError text, and what went to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = loader(path)
        except DataError as exc:
            result = str(exc)
        else:
            arrays = got.weights if hasattr(got, "weights") else {"vectors": got.vectors}
            result = {name: (a.shape, a.tobytes()) for name, a in arrays.items()}
    return result, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
@settings(PROPERTY, max_examples=80)
@given(data=st.data())
def test_block_parser_matches_row_parser(kind, data):
    loader, oracle, fixture, is_row = BLOCK_CASES[kind]
    with scratch_dir() as root:
        path = root / f"input.{kind}"
        path.write_bytes(data.draw(edited(fixture, is_row)))
        got, err, caught = outcome(loader, path)
        want, _, _ = outcome(oracle, path)
    assert got == want
    assert err == "" and caught == []


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_block_parser_reads_fixture_like_row_parser(kind):
    loader, oracle, fixture, _ = BLOCK_CASES[kind]
    path = {"model": DATA_DIR / "fixture.wts", "embeddings": DATA_DIR / "emb3" / "src.emb"}[kind]
    for p in (path, None):
        with scratch_dir() as root:
            if p is None:
                p = root / "tiny"
                p.write_bytes(fixture)
            got, err, caught = outcome(loader, p)
            assert got == outcome(oracle, p)[0]
            assert not isinstance(got, str)
            assert err == "" and caught == []


# -- the writers: each save_* inverts its loader, and every CSV reads back ------


def test_writers_reproduce_fixtures():
    cases = [(load_model, save_model, DATA_DIR / "fixture.wts"),
             (load_vocab, save_vocab, DATA_DIR / "vocab.txt")]
    cases += [(load_embeddings, save_embeddings, p) for p in DATA_DIR.glob("emb3/**/*.emb")]
    cases += [(load_corpus, save_corpus, p) for p in DATA_DIR.glob("run3/**/*.txt")]
    assert len(cases) == 2 + 5 + 5
    with scratch_dir() as root:
        for load, save, path in cases:
            save(load(path), root / "copy")
            assert (root / "copy").read_bytes() == path.read_bytes(), path


# cells that need quoting, and some that do not
CSV_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "7", "қ", "é", "\u2028"]))


@PROPERTY
@given(
    names=st.lists(CSV_TEXT, min_size=1, max_size=3),
    ids=st.lists(CSV_TEXT, max_size=4),
    data=st.data(),
)
def test_emit_csv_reads_back(names, ids, data):
    values = st.one_of(st.none(), st.floats(allow_nan=False))
    table = [[data.draw(values) for _ in names] for _ in ids]
    series = [
        MetricSeries(name, tuple(SeriesPoint(i, row[k], 0) for i, row in zip(ids, table)))
        for k, name in enumerate(names)
    ]
    with scratch_dir() as root:
        emit_csv(series, root / "t.csv")
        with open(root / "t.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows == [["checkpoint", *names]] + [
        [i, *map(format_value, row)] for i, row in zip(ids, table)
    ]
