"""Sentence corpora and checkpoint-run layouts.

File contract: every text input is UTF-8 with LF line ends; a CR
before an LF is ignored. read_lines() is the one reader behind every
loader, so each loader error names the file and, where there is one,
the line. Corpora hold one sentence per line. A run directory holds
src.txt, ref.txt and checkpoints/<id>/hyp.txt. Tokenization is
whitespace splitting after Unicode NFC normalization; empty lines
become zero-token sentences so line pairing across files is
preserved.
"""

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


@dataclass(frozen=True)
class Corpus:
    name: str
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __getitem__(self, i):
        return self.sentences[i]


def read_lines(path):
    """Yield (line number, text) for each line of a UTF-8 text file.

    Lines end only at LF; the LF is dropped, and so is a CR just before
    it or at the end of the file. The file is streamed, never held
    whole. A line that is not UTF-8, or a file that cannot be opened,
    raises a DataError naming the path.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            yield lineno, text


def parse_rows(rows, ncols):
    """Parse rows of space-separated decimals as one (len(rows), ncols) array.

    np.loadtxt parses the whole block at once. The result is None, for
    the caller to parse row by row with float(), on any ValueError or
    warning, or on any other shape: np.loadtxt rejects `1_0` and
    non-ASCII digits, which float() accepts, and skips blank rows. Where
    np.loadtxt accepts every row, float() gives the same values bit for
    bit, so the block parser changes no result and no error message.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            block = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return block if block.shape == (len(rows), ncols) else None


def load_corpus(path, name: str | None = None) -> Corpus:
    """Read one sentence per line; a blank line is a zero-token sentence."""
    if name is None:
        name = os.path.basename(str(path))
    return Corpus(
        name=name,
        sentences=tuple(Sentence.from_line(text) for _, text in read_lines(path)),
    )


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sent in corpus:
            fh.write(sent.raw)
            fh.write("\n")


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

    Checkpoints are sorted by id; every corpus must have the same
    sentence count as src.txt.
    """
    run_dir = str(run_dir)
    src_path = os.path.join(run_dir, "src.txt")
    ref_path = os.path.join(run_dir, "ref.txt")
    for p in (src_path, ref_path):
        if not os.path.isfile(p):
            raise DataError(f"run layout incomplete: missing {p}")
    source = load_corpus(src_path, name="src")
    reference = load_corpus(ref_path, name="ref")
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
        hyp_path = os.path.join(sub, "hyp.txt")
        if not os.path.isfile(hyp_path):
            raise DataError(f"checkpoint {ckpt_id}: missing {hyp_path}")
        hyp = load_corpus(hyp_path, name=f"hyp@{ckpt_id}")
        if len(hyp) != len(source):
            raise DataError(
                f"{hyp_path}: {len(hyp)} hypotheses for {len(source)} sources"
            )
        checkpoints.append(CheckpointRun(checkpoint_id=ckpt_id, hypotheses=hyp))
    return AnalysisRun(source=source, reference=reference, checkpoints=tuple(checkpoints))
