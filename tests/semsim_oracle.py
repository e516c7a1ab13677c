"""Reference RMSS over the full n x n cosine matrix.

This is the `mtlens.semsim.rmss` shipped before it moved to row tiles.
It builds cos[i, j] = cos(x_i, y_j) for every pair at once, then sorts
row i for x_i's neighbours in Y and column i for y_i's neighbours in X,
and sums each side's k largest values in descending order. Used to
check that the tiled version gives the same skip pattern and the same
scores up to BLAS rounding, which changes with the tile shape.
"""

import numpy as np

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
