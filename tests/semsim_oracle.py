"""Reference RMSS: over the full n x n cosine matrix, and from two products.

rmss is the `mtlens.semsim.rmss` shipped before it moved to row tiles.
It builds cos[i, j] = cos(x_i, y_j) for every pair at once, then sorts
row i for x_i's neighbours in Y and column i for y_i's neighbours in X,
and sums each side's k largest values in descending order. Used to
check that the tiled version gives the same skip pattern and the same
scores up to BLAS rounding, which changes with the tile shape.

two_product_rmss is the tiled `mtlens.semsim.rmss` shipped before the
y-side came from the x-side tiles: _top_k_sums is that version
verbatim, run once over row tiles of xn @ yn.T and once over row tiles
of yn @ xn.T. column_rmss takes the y-side from the columns of the
x-side tiles instead, held whole. Tile rows follow semsim.TILE_ELEMENTS,
so that a test patching it tiles all three the same way. The merge in
the new rmss must equal column_rmss bit for bit, its two products
two_product_rmss, and the two oracles each other wherever the two
products' cells agree (cells_agree). They need not: a BLAS kernel may
round a cell differently by its place in the tile, as OpenBLAS does in
the last columns when n is not a multiple of its kernel width.
"""

import numpy as np

from mtlens import semsim
from mtlens.errors import DataError
from mtlens.semsim import EmbeddingSet, RmssResult
from mtlens.wordorder import mean_or_none


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

    x = x_set.vectors
    y = y_set.vectors
    x_norm = np.linalg.norm(x, axis=1)
    y_norm = np.linalg.norm(y, axis=1)
    if np.any(x_norm == 0.0) or np.any(y_norm == 0.0):
        raise DataError("cosine undefined for a zero vector")
    xn = x / x_norm[:, None]
    yn = y / y_norm[:, None]
    cos = xn @ yn.T  # cos[i, j] = cos(x_i, y_j)

    per = []
    skipped = 0
    for i in range(n):
        # nearest = largest cosine; summing the k largest values makes
        # index tie-breaking irrelevant to the result
        x_side = np.sort(cos[i, :])[::-1][:k].sum() / (2.0 * k)
        y_side = np.sort(cos[:, i])[::-1][:k].sum() / (2.0 * k)
        denom = x_side + y_side
        if denom <= 0.0:
            per.append(None)
            skipped += 1
        else:
            per.append(float(cos[i, i] / denom))
    mean = mean_or_none([v for v in per if v is not None])
    return RmssResult(per_sentence=tuple(per), mean=mean, k=k, skipped=skipped)


def margins(x_set: EmbeddingSet, y_set: EmbeddingSet, k: int) -> np.ndarray:
    """The denominator `rmss` above compares with 0, for each pair."""
    xn = x_set.vectors / np.linalg.norm(x_set.vectors, axis=1)[:, None]
    yn = y_set.vectors / np.linalg.norm(y_set.vectors, axis=1)[:, None]
    cos = xn @ yn.T

    def side(c):
        return np.sort(c, axis=1)[:, ::-1][:, :k].sum(axis=1) / (2.0 * k)

    return side(cos) + side(cos.T)


def _top_k_sums(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of a @ b.T, the sum of its k largest values and entry (i, i)."""
    n = a.shape[0]
    rows = max(1, semsim.TILE_ELEMENTS // n)
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


def x_side_cells(xn: np.ndarray, yn: np.ndarray) -> np.ndarray:
    """xn @ yn.T assembled from the row tiles that _top_k_sums computes."""
    n = xn.shape[0]
    rows = max(1, semsim.TILE_ELEMENTS // n)
    return np.concatenate([np.matmul(xn[s : s + rows], yn.T) for s in range(0, n, rows)])


def cells_agree(x_set: EmbeddingSet, y_set: EmbeddingSet) -> bool:
    """Whether each cell (i, j) of the xn @ yn.T tiles equals cell (j, i) of the yn @ xn.T tiles."""
    xn = semsim._unit_rows(x_set.vectors)
    yn = semsim._unit_rows(y_set.vectors)
    return bool((x_side_cells(xn, yn) == x_side_cells(yn, xn).T).all())


def rmss_result(paired, x_top, y_top, k) -> RmssResult:
    denom = x_top / (2.0 * k) + y_top / (2.0 * k)
    per = [None if d <= 0.0 else float(c / d) for c, d in zip(paired, denom)]
    mean = mean_or_none([v for v in per if v is not None])
    return RmssResult(per_sentence=tuple(per), mean=mean, k=k, skipped=per.count(None))


def two_product_rmss(x_set: EmbeddingSet, y_set: EmbeddingSet, k: int) -> RmssResult:
    """semsim.rmss with both sides from _top_k_sums, for 1 <= k <= n."""
    xn = semsim._unit_rows(x_set.vectors)
    yn = semsim._unit_rows(y_set.vectors)
    x_top, paired = _top_k_sums(xn, yn, k)
    y_top, _ = _top_k_sums(yn, xn, k)
    return rmss_result(paired, x_top, y_top, k)


def column_rmss(x_set: EmbeddingSet, y_set: EmbeddingSet, k: int) -> RmssResult:
    """semsim.rmss with the y-side from the columns of the x-side tiles, held whole.

    Each column's k largest are summed largest first from a C-contiguous
    ascending row, as _top_k_sums sums a row's.
    """
    xn = semsim._unit_rows(x_set.vectors)
    yn = semsim._unit_rows(y_set.vectors)
    n = xn.shape[0]
    x_top, paired = _top_k_sums(xn, yn, k)
    columns = np.ascontiguousarray(x_side_cells(xn, yn).T)
    top = np.sort(np.sort(columns, axis=1)[:, n - k :], axis=1)  # C-contiguous, as in _top_k_sums
    return rmss_result(paired, x_top, top[:, ::-1].sum(axis=1), k)
