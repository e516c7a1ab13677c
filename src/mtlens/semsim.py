"""Ratio margin-based similarity over ingested sentence embeddings.

For aligned embedding sets X (reference-or-source side) and Y
(hypothesis side), each pair scores cos(x_i, y_i) divided by the
margin term: half the mean cosine from x_i to its k nearest
neighbors in Y plus half the mean cosine from y_i to its k nearest
neighbors in X. Neighbor pools are the full opposing set, so the
paired sentence may be its own neighbor. Scores are high when a pair
is closer than its neighborhoods.

The cosines are never held as one n x n matrix. They come in row
tiles of xn @ yn.T, each max(1, TILE_ELEMENTS // n) whole rows: at
n <= 1448 one tile is the whole matrix, and at n = 8192 a tile is 256
rows, tall enough for the BLAS product to run near its full-matrix
speed. cos(x_i, y_i) is read from the tiles' diagonal. In each row
np.partition picks the k largest values, and only those are sorted
and summed largest first: the order, and so the rounding, of summing
a fully sorted row's first k values. Those are the x-side sums.

The y-side sums need each column's k largest values. One product
yields them from the same tiles when k <= rows < n // k, rows being
the tile height: then the first tile fills each column's k slots, and
compare-exchanging all of it (k * rows * n operations) costs less than
the n * n cells of a second product. That first tile is the dense
prefix. It enters a (k, n) array of each column's k largest so far,
largest first, one row at a time by compare-exchange down the k slots.
After that each tile is compared, in bands of BAND_ELEMENTS cells,
with its columns' k-th values. Only a column with a cell strictly
greater is hit (a cell equal to the k-th value cannot change the sum):
its k values are sorted together with its cells in the band, and the k
largest kept, before the next band is compared. For rows in random
order about k n ln(n / rows) cells are above their k-th value, whatever
the dimension. Each column's k values are then copied to a
contiguous ascending row and summed in reverse, exactly as a row of
the x-side is, so that both sides round alike.

Every other input runs two products, the y-side from row tiles of
yn @ xn.T summed as the x-side is: one tile holds every row, or k is
too large for the merge to pay. The seed-1 scoring set (n = 8192,
k = 4) merges after a 256-row prefix; the report benchmark's sets
(n = 72) are one tile. The merge also gives up, and the second
product runs, once the cells above their k-th value pass GIVE_UP times
their random-order expectation for the rows seen so far, plus n. That
guard bounds only adversarial row orders, such as a set built so that
the cosines rise down every column, which could put every cell above
its k-th value; no real embedding file is known to need it.

Memory beyond the two normalised input copies is one tile (16 MB), in
which each row's k largest are sorted in place, and a few length-n
vectors at every k; one product adds the (k, n) array (k < sqrt(n))
and one band's hit columns.

The two paths give the same bits when each cell (i, j) of xn @ yn.T
equals cell (j, i) of yn @ xn.T, the same dot product of the same two
vectors. All 2,097,152 cells of a 256 x 8192 tile of the seed-1
scoring benchmark, at d = 128, were equal. But a BLAS kernel may round
a cell by its place in the tile: OpenBLAS did so in the last columns
of tiles whose width n is not a multiple of its kernel's (for random
vectors at n = 1500 and d = 128, 10,054 of the 2,250,000 cells
differ), and then a score can move by a few units in its last
place. Which BLAS kernel fills a tile also depends on its shape, so
cosines can differ in the last bit from those of a full product.

Embedding files are UTF-8 text read through corpus.read_lines: a
"count dim" header on line 1, then one row of space-separated decimals
per vector, so vector i sits on line i + 2, and only blank lines after
them. corpus.read_array parses the rows, as it does those of weight
files; load errors name the file and that line. Embedding extraction
itself happens upstream; this module only ingests vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import read_array, read_lines, write_text
from .errors import DataError
from .series import mean_or_none

# cosines held at once: one row tile of xn @ yn.T or yn @ xn.T (16 MB of float64)
TILE_ELEMENTS = 1 << 21
# cells of a tile compared at once with their columns' k-th values
BAND_ELEMENTS = 1 << 16
# the y-side falls back to a second product once the cells above their k-th
# value pass GIVE_UP times their expectation for rows in random order, plus n;
# this guards only against adversarial row orders
GIVE_UP = 2.0


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
    if arr.shape[1] < 1:
        raise DataError(f"embeddings need at least one component, got shape {arr.shape}")
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


def _top_k_sums(
    a: np.ndarray, b: np.ndarray, k: int, columns: "_ColumnTopK | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of a @ b.T, the sum of its k largest values and entry (i, i).

    Each tile is handed to columns.add before its rows are partitioned.
    """
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
        if columns is not None:
            columns.add(tile, start)
        tile.partition(n - k, axis=1)  # each row's k largest now sit last
        top = tile[:, n - k :]
        top.sort(axis=1)  # in place: no (rows, k) copy
        sums[start:stop] = top[:, ::-1].sum(axis=1)  # largest first
    return sums, diag


class _ColumnTopK:
    """Each column's k largest values over the tiles added so far.

    top[:, j] holds column j's k largest, largest first. The first tile
    enters whole, one row at a time by compare-exchange down the k slots.
    Later tiles come in bands: each column with a cell strictly above its
    k-th value top[k - 1, j] sorts its k values together with its cells
    in the band and keeps the k largest.
    """

    def __init__(self, n: int, k: int):
        self.top = np.full((k, n), -np.inf)
        self.dense_rows = 0  # rows of the first tile
        self.merged = 0  # cells above their column's k-th value after the first tile
        self.given_up = False

    def add(self, tile: np.ndarray, start: int) -> None:
        """Merge the tile whose first row is row start of the product."""
        if self.given_up:
            return
        if not start:  # the dense prefix
            self.dense_rows = len(tile)
            for row in tile:
                _compare_exchange(self.top, row.copy())
            return
        k, n = self.top.shape
        band_rows = max(1, BAND_ELEMENTS // n)
        for b in range(0, len(tile), band_rows):
            band = tile[b : b + band_rows]
            hit = np.flatnonzero((band > self.top[-1]).any(axis=0))
            # each hit column's k values, largest first, over its cells in the band
            block = np.concatenate((self.top.take(hit, axis=1), band.take(hit, axis=1)))
            self.merged += np.count_nonzero(block[k:] > block[k - 1])
            expected = k * n * math.log((start + b + len(band)) / self.dense_rows)
            if self.merged > GIVE_UP * expected + n:
                self.given_up = True
                return
            block.sort(axis=0)
            self.top[:, hit] = block[: -k - 1 : -1]
            del block  # before the next band's comparison: one band's buffers at a time

    def sums(self) -> np.ndarray:
        """Per column, the sum of its k largest values, largest first."""
        # each column's k values as a contiguous ascending row, summed in reverse like a tile row's
        ascending = np.ascontiguousarray(self.top[::-1].T)
        return ascending[:, ::-1].sum(axis=1)


def _compare_exchange(top: np.ndarray, v: np.ndarray) -> None:
    """Compare-exchange v[j] down column j of top, which keeps its k largest first; overwrites v."""
    low = np.empty_like(v)
    for slot in top:
        np.minimum(slot, v, out=low)
        np.maximum(slot, v, out=slot)
        v, low = low, v


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
    rows = max(1, TILE_ELEMENTS // n)
    # one product when the first tile fills every column's k slots for less than a second product
    columns = _ColumnTopK(n, k) if k <= rows < n // k else None
    x_top, paired = _top_k_sums(xn, yn, k, columns)  # paired[i] = cos(x_i, y_i)
    y_top = columns.sums() if columns and not columns.given_up else _top_k_sums(yn, xn, k)[0]
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
