import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtlens.align import read_pharaoh
from mtlens.corpus import Sentence, load_corpus, load_run, ranges, read_lines, save_corpus
from mtlens.errors import DataError
from mtlens.semsim import load_embeddings
from mtlens.transformer import load_model, load_vocab
from ranges_oracle import _chunks

from conftest import DATA_DIR, make_corpus


def write(path, text):
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)


def test_load_simple(tmp_path):
    p = tmp_path / "a.txt"
    write(p, "a b\n")
    c = load_corpus(p)
    assert len(c) == 1
    assert c[0].tokens == ("a", "b")


def test_load_empty_file(tmp_path):
    p = tmp_path / "a.txt"
    write(p, "")
    assert len(load_corpus(p)) == 0


def test_empty_line_preserved(tmp_path):
    # blank middle line must stay to keep line pairing across files
    p = tmp_path / "a.txt"
    write(p, "x\n\ny\n")
    c = load_corpus(p)
    assert len(c) == 3
    assert c[1].tokens == ()
    assert c[0].tokens == ("x",)
    assert c[2].tokens == ("y",)


def test_nfc_normalization(tmp_path):
    p = tmp_path / "a.txt"
    write(p, "café\n")  # e + combining acute
    c = load_corpus(p)
    assert c[0].raw == "café"


def test_invalid_utf8_names_line(tmp_path):
    p = tmp_path / "a.txt"
    write(p, b"good line\n\xff\xfe bad\n")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(p)


def test_missing_file():
    with pytest.raises(DataError):
        load_corpus("/nonexistent/nowhere.txt")


def test_read_lines_breaks_only_at_lf(tmp_path):
    p = tmp_path / "a.txt"
    write(p, b"a b\r\nc\rd\n\n\xc3\xa9 \r")
    assert list(read_lines(p)) == [(1, "a b"), (2, "c\rd"), (3, ""), (4, "é ")]


# loader, fixture, and a view of the result that compares with ==
LOADERS = {
    "corpus": (load_corpus, "run3/ref.txt", lambda c: c),
    "embeddings": (load_embeddings, "emb3/ref.emb", lambda e: e.vectors.tolist()),
    "model": (load_model, "fixture.wts", lambda m: {k: v.tolist() for k, v in m.weights.items()}),
    "vocab": (load_vocab, "vocab.txt", lambda v: v.tokens),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_crlf_file_loads_like_lf(tmp_path, kind):
    loader, name, view = LOADERS[kind]
    crlf = tmp_path / "crlf"
    write(crlf, (DATA_DIR / name).read_bytes().replace(b"\n", b"\r\n"))
    assert view(loader(crlf)) == view(loader(DATA_DIR / name))


def test_crlf_pharaoh_loads_like_lf(tmp_path):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    write(lf, "0-0 1-1\n\n2-0\n")
    write(crlf, "0-0 1-1\r\n\r\n2-0\r\n")
    assert read_pharaoh(crlf) == read_pharaoh(lf)


@pytest.mark.parametrize("loader", [read_pharaoh, load_embeddings, load_model, load_vocab])
def test_missing_file_names_path(tmp_path, loader):
    missing = tmp_path / "missing.input"
    with pytest.raises(DataError, match="missing.input"):
        loader(missing)


def test_roundtrip_idempotent(tmp_path):
    c = make_corpus(["a b c", "", "  padded   tokens  ", "x"])
    p = tmp_path / "c.txt"
    save_corpus(c, p)
    c2 = load_corpus(p)
    save_corpus(c2, tmp_path / "c2.txt")
    c3 = load_corpus(tmp_path / "c2.txt")
    assert c2 == c3
    assert [s.tokens for s in c2] == [s.tokens for s in c]


def test_token_count_matches_nonspace_runs():
    for raw in ["a b", "", "  x ", "one\ttwo three", "a  b   c"]:
        s = Sentence.from_line(raw)
        runs = re.findall(r"\S+", s.raw)
        assert len(s.tokens) == len(runs)
        assert all(t for t in s.tokens)


def _make_run(tmp_path, src_lines, ref_lines, ckpts):
    write(tmp_path / "src.txt", "\n".join(src_lines) + ("\n" if src_lines else ""))
    write(tmp_path / "ref.txt", "\n".join(ref_lines) + ("\n" if ref_lines else ""))
    for ckpt_id, hyp_lines in ckpts.items():
        d = tmp_path / "checkpoints" / ckpt_id
        d.mkdir(parents=True)
        write(d / "hyp.txt", "\n".join(hyp_lines) + ("\n" if hyp_lines else ""))


def test_load_run_basic(tmp_path):
    _make_run(tmp_path, ["s1", "s2", "s3"], ["r1", "r2", "r3"], {"000100": ["h1", "h2", "h3"]})
    run = load_run(tmp_path)
    assert len(run.checkpoints) == 1
    assert len(run.source) == 3


def test_load_run_length_mismatch(tmp_path):
    _make_run(tmp_path, ["s1", "s2", "s3"], ["r1", "r2", "r3"], {"000100": ["h1", "h2"]})
    with pytest.raises(DataError, match="000100"):
        load_run(tmp_path)


def test_load_run_sorts_checkpoints(tmp_path):
    _make_run(
        tmp_path,
        ["s1"],
        ["r1"],
        {"000100": ["a"], "000050": ["b"]},
    )
    run = load_run(tmp_path)
    assert [c.checkpoint_id for c in run.checkpoints] == ["000050", "000100"]


def test_load_run_missing_piece(tmp_path):
    write(tmp_path / "src.txt", "s\n")
    with pytest.raises(DataError, match="ref.txt"):
        load_run(tmp_path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 12), max_size=30), st.integers(0, 10))
@example([], 5)
@example([0, 0, 0], 0)
@example([9, 1, 1, 9], 2)
def test_ranges_equal_the_chunk_walker(sizes, limit):
    # zero sizes, items over the limit, empty input and a limit of 0 all occur
    with mock.patch("ranges_oracle.LINK_CHUNK", limit):
        want = list(_chunks(sizes))
    got = list(ranges(sizes, limit))
    assert got == want
    assert list(ranges((size for size in sizes), limit)) == want
    # the ranges tile the items in order, and only a lone item exceeds the limit
    assert [i for start, stop in got for i in range(start, stop)] == list(range(len(sizes)))
    for start, stop in got:
        assert sum(sizes[start:stop]) <= limit or stop - start == 1
