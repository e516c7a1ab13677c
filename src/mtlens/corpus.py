"""Sentence corpora and checkpoint-run layouts.

File contract: every text input is UTF-8 with LF line ends; a CR
before an LF is ignored, and so is a byte-order mark that opens a
file. read_lines() is the one reader behind every loader, so each
loader error names the file and, where there is one, the line;
read_array() is the one parser of the numeric rows in weight and
embedding files. Every output file is UTF-8 with LF line ends,
written whole by write_text(), whose errors name the file. Corpora
hold one sentence per line. A run directory holds src.txt, ref.txt
and checkpoints/<id>/hyp.txt. Tokenization is whitespace splitting
after Unicode NFC normalization; empty lines become zero-token
sentences so line pairing across files is preserved. ranges() packs
whole sentences, or sentence pairs, into bounded blocks for the code
that walks a corpus in pieces.
"""

import codecs
import contextlib
import os
import unicodedata
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Sentence:
    raw: str
    tokens: tuple[str, ...]

    @staticmethod
    def from_line(line: str) -> "Sentence":
        norm = unicodedata.normalize("NFC", line).strip()
        return Sentence(raw=norm, tokens=tuple(norm.split()))

    @staticmethod
    def from_tokens(tokens) -> "Sentence":
        tokens = tuple(tokens)
        return Sentence(raw=" ".join(tokens), tokens=tokens)

    def __len__(self) -> int:
        return len(self.tokens)


# a corpus is its sentences, in line order
Corpus = tuple[Sentence, ...]


def read_lines(path):
    """Yield (line number, text) for each line of a UTF-8 text file.

    Lines end only at LF; the LF is dropped, and so is a CR just before
    it or at the end of the file. One byte-order mark (U+FEFF) at the
    start of the file is dropped too. The file is streamed, never held
    whole. A line that is not UTF-8, or a file that cannot be opened,
    raises a DataError naming the path.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        if fh.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8):
            fh.read(len(codecs.BOM_UTF8))
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            yield lineno, text


def write_text(path, text: str) -> None:
    """Replace the file at path with text, as UTF-8 with LF line ends.

    A file that cannot be opened or written raises a DataError naming
    the path.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_array(path, lines, nrows, ncols):
    """Parse the next nrows items of read_lines() output as an (nrows, ncols) array.

    Each row holds ncols decimals split by whitespace. np.loadtxt
    parses the block at once. On any ValueError or warning, or any
    other shape, the rows are parsed again with one float() per value:
    float() also accepts `1_0`, non-ASCII digits and any Unicode
    whitespace, gives the same bits wherever np.loadtxt accepts a row,
    and lets the error name the first bad row's line.
    """
    head = [item for _, item in zip(range(nrows), lines)]
    if len(head) == nrows:
        with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
            warnings.simplefilter("error")
            block = np.loadtxt([row for _, row in head], dtype=np.float64, comments=None, ndmin=2)
            if block.shape == (nrows, ncols):
                return block
    rows = []
    for lineno, line in head:
        try:
            row = [float(v) for v in line.split()]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad number") from exc
        if len(row) != ncols:
            raise DataError(f"{path}: line {lineno}: expected {ncols} values, got {len(row)}")
        rows.append(row)
    if len(rows) < nrows:
        raise DataError(
            f"{path}: end of file after {len(rows)} rows; the header promises {nrows}"
        )
    try:
        return np.array(rows, dtype=np.float64).reshape(nrows, ncols)
    except ValueError as exc:  # ncols too large for numpy, with no rows
        raise DataError(f"{path}: bad header counts {nrows} {ncols}") from exc


def load_corpus(path) -> Corpus:
    """Read one sentence per line; a blank line is a zero-token sentence."""
    return tuple(Sentence.from_line(text) for _, text in read_lines(path))


def save_corpus(corpus: Corpus, path) -> None:
    write_text(path, "".join(f"{sent.raw}\n" for sent in corpus))


def check_lengths(first: Corpus, second: Corpus) -> None:
    """Raise a DataError unless the two corpora pair line for line."""
    if len(first) != len(second):
        raise DataError(f"corpus length mismatch: {len(first)} vs {len(second)}")


def ranges(sizes, limit):
    """Greedy (start, stop) ranges of whole items whose sizes sum to at most limit.

    A range holds one item at least, so it exceeds limit only when that
    item alone does. sizes may be any iterable; it is read once, in order.
    """
    start = stop = total = 0
    for size in sizes:
        if stop > start and total + size > limit:
            yield start, stop
            start, total = stop, 0
        total += size
        stop += 1
    if stop > start:
        yield start, stop


def is_utf8(name: str) -> bool:
    """False where name holds a byte that is not UTF-8, which Python reads as a lone surrogate."""
    return not any("\ud800" <= c <= "\udfff" for c in name)


@dataclass(frozen=True)
class CheckpointRun:
    checkpoint_id: str
    hypotheses: Corpus


@dataclass(frozen=True)
class AnalysisRun:
    source: Corpus
    reference: Corpus
    checkpoints: tuple[CheckpointRun, ...]


def load_run(run_dir) -> AnalysisRun:
    """Load src.txt, ref.txt and every checkpoints/<id>/hyp.txt.

    Checkpoints are sorted by id, and each id must be valid UTF-8;
    every corpus must have the same sentence count as src.txt.
    """
    run_dir = str(run_dir)
    src_path = os.path.join(run_dir, "src.txt")
    ref_path = os.path.join(run_dir, "ref.txt")
    for p in (src_path, ref_path):
        if not os.path.isfile(p):
            raise DataError(f"run layout incomplete: missing {p}")
    source = load_corpus(src_path)
    reference = load_corpus(ref_path)
    if len(reference) != len(source):
        raise DataError(
            f"{ref_path} has {len(reference)} sentences but {src_path} has {len(source)}"
        )

    ckpt_root = os.path.join(run_dir, "checkpoints")
    if not os.path.isdir(ckpt_root):
        raise DataError(f"run layout incomplete: missing directory {ckpt_root}")
    checkpoints = []
    for ckpt_id in sorted(os.listdir(ckpt_root)):
        sub = os.path.join(ckpt_root, ckpt_id)
        if not os.path.isdir(sub):
            continue
        if not is_utf8(ckpt_id):  # an id is written to CSV, SVG and stdout as UTF-8
            raise DataError(f"{ckpt_root}: checkpoint name {ckpt_id!r} is not valid UTF-8")
        hyp_path = os.path.join(sub, "hyp.txt")
        if not os.path.isfile(hyp_path):
            raise DataError(f"checkpoint {ckpt_id}: missing {hyp_path}")
        hyp = load_corpus(hyp_path)
        if len(hyp) != len(source):
            raise DataError(
                f"{hyp_path}: {len(hyp)} hypotheses for {len(source)} sources"
            )
        checkpoints.append(CheckpointRun(checkpoint_id=ckpt_id, hypotheses=hyp))
    return AnalysisRun(source=source, reference=reference, checkpoints=tuple(checkpoints))
