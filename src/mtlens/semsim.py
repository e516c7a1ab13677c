"""Ratio margin-based similarity over ingested sentence embeddings.

For aligned embedding sets X (reference-or-source side) and Y
(hypothesis side), each pair scores cos(x_i, y_i) divided by the
margin term: half the mean cosine from x_i to its k nearest
neighbors in Y plus half the mean cosine from y_i to its k nearest
neighbors in X. Neighbor pools are the full opposing set, so the
paired sentence may be its own neighbor. Scores are high when a pair
is closer than its neighborhoods.

The cosines are never held as one n x n matrix. The x-side sums come
from row tiles of xn @ yn.T, the y-side sums from row tiles of
yn @ xn.T, each tile max(1, TILE_ELEMENTS // n) whole rows; cos(x_i, y_i)
is read from the diagonal of the x-side tiles. Memory beyond the two
normalised input copies is one tile (16 MB) plus a few length-n
vectors; at n <= 1448 one tile is the whole matrix, and at n = 8192 a
tile is 256 rows, tall enough for the BLAS product to run near its
full-matrix speed. In each row np.partition picks the k largest
values, and only those are sorted and summed largest first: the
order, and so the rounding, of summing a fully sorted row's first k
values. Which BLAS kernel fills a tile still depends on its shape, so
cosines can differ in the last bit from those of a full product.

Embedding files are UTF-8 text read through corpus.read_lines: a
"count dim" header on line 1, then one row of space-separated
decimals per vector, so vector i sits on line i + 2, and only blank
lines after them. corpus.read_array parses the rows, as it does those
of weight files; load errors name the file and that line. Embedding extraction itself happens upstream;
this module only ingests vectors.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import read_array, read_lines, write_text
from .errors import DataError
from .series import mean_or_none

# cosines held at once: one row tile of xn @ yn.T or yn @ xn.T (16 MB of float64)
TILE_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class EmbeddingSet:
    vectors: np.ndarray  # (count, dim) float64

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def embedding_set(vectors) -> EmbeddingSet:
    """Validate and wrap raw vectors (used by tests and callers)."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"embeddings must be 2-D, got shape {arr.shape}")
    bad = _nonfinite_row(arr)
    if bad is not None:
        raise DataError(f"non-finite embedding component at row {bad}")
    return EmbeddingSet(vectors=arr)


def _nonfinite_row(arr: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, or None."""
    finite = np.isfinite(arr).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


@dataclass(frozen=True)
class RmssResult:
    per_sentence: tuple  # float per pair, None where the margin degenerated
    mean: float | None  # None when no pair scored
    k: int
    skipped: int


def _top_k_sums(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of a @ b.T, the sum of its k largest values and entry (i, i)."""
    n = a.shape[0]
    rows = max(1, TILE_ELEMENTS // n)
    sums = np.empty(n)
    diag = np.empty(n)
    buf = np.empty((min(rows, n), n))  # every tile is written here
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        tile = buf[: stop - start]
        np.matmul(a[start:stop], b.T, out=tile)
        diag[start:stop] = tile.diagonal(start)
        tile.partition(n - k, axis=1)  # each row's k largest now sit last
        top = np.sort(tile[:, n - k :], axis=1)
        sums[start:stop] = top[:, ::-1].sum(axis=1)  # largest first
    return sums, diag


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """A copy of v with each row scaled to unit length; raises on a zero row.

    Each row is first scaled by the power of two that brings its largest
    |component| into [0.5, 1). That is exact, and it puts the sum of
    squares in the norm between 1/4 and the dimension, so at no finite
    magnitude does it overflow or underflow to 0.
    """
    _, exp = np.frexp(np.maximum(v.max(axis=1), -v.min(axis=1)))
    unit = np.ldexp(v, -exp[:, None])
    norm = np.linalg.norm(unit, axis=1)
    if np.any(norm == 0.0):
        raise DataError("cosine undefined for a zero vector")
    unit /= norm[:, None]
    return unit


def rmss(x_set: EmbeddingSet, y_set: EmbeddingSet, k: int) -> RmssResult:
    if x_set.count != y_set.count:
        raise DataError(
            f"embedding counts differ: {x_set.count} vs {y_set.count}"
        )
    if x_set.dim != y_set.dim:
        raise DataError(f"embedding dims differ: {x_set.dim} vs {y_set.dim}")
    n = x_set.count
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")

    xn = _unit_rows(x_set.vectors)
    yn = _unit_rows(y_set.vectors)
    x_top, paired = _top_k_sums(xn, yn, k)  # paired[i] = cos(x_i, y_i)
    y_top, _ = _top_k_sums(yn, xn, k)
    denom = x_top / (2.0 * k) + y_top / (2.0 * k)
    per = [None if d <= 0.0 else float(c / d) for c, d in zip(paired, denom)]
    skipped = per.count(None)
    mean = mean_or_none([v for v in per if v is not None])
    return RmssResult(per_sentence=tuple(per), mean=mean, k=k, skipped=skipped)


def load_embeddings(path) -> EmbeddingSet:
    """Parse a "count dim" header, then count rows through corpus.read_array."""
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise DataError(f"{path}: header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"{path}: bad header {header!r}") from exc
    if count < 0 or dim < 1:
        raise DataError(f"{path}: bad header counts {count} {dim}")
    arr = read_array(path, lines, count, dim)
    for lineno, line in lines:  # only blank lines may follow the rows
        if line.strip():
            raise DataError(f"{path}: line {lineno}: more rows than the header's {count}")
    bad = _nonfinite_row(arr)
    if bad is not None:
        raise DataError(f"{path}: line {bad + 2}: non-finite value")
    return EmbeddingSet(vectors=arr)


def save_embeddings(emb: EmbeddingSet, path) -> None:
    rows = (" ".join(f"{v:.17g}" for v in row) for row in emb.vectors)
    write_text(path, "\n".join([f"{emb.count} {emb.dim}", *rows]) + "\n")
