import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semsim_oracle
from mtlens import semsim
from mtlens.errors import DataError
from mtlens.rng import SplitMix64
from mtlens.semsim import (
    EmbeddingSet,
    embedding_set,
    load_embeddings,
    rmss,
    save_embeddings,
)


def oracle_cos(a, b):
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return num / (na * nb)


def oracle_rmss(x_rows, y_rows, k):
    """Exhaustive kNN scoring with explicit (-cos, index) sorting."""
    n = len(x_rows)
    out = []
    for i in range(n):
        num = oracle_cos(x_rows[i], y_rows[i])
        x_neighbors = sorted(
            range(n), key=lambda j: (-oracle_cos(x_rows[i], y_rows[j]), j)
        )[:k]
        y_neighbors = sorted(
            range(n), key=lambda j: (-oracle_cos(y_rows[i], x_rows[j]), j)
        )[:k]
        denom = sum(oracle_cos(x_rows[i], y_rows[j]) for j in x_neighbors) / (2 * k)
        denom += sum(oracle_cos(y_rows[i], x_rows[j]) for j in y_neighbors) / (2 * k)
        out.append(None if denom <= 0 else num / denom)
    return out


def test_rmss_self_pair_identity_k1():
    xs = embedding_set([[1.0, 0.0], [0.0, 1.0]])
    result = rmss(xs, xs, k=1)
    assert result.per_sentence == (1.0, 1.0)
    assert result.mean == 1.0


def test_rmss_all_identical_k_equals_count():
    xs = embedding_set([[1.0, 1.0]] * 4)
    result = rmss(xs, xs, k=4)
    for v in result.per_sentence:
        assert v == pytest.approx(1.0)


def test_rmss_matches_bruteforce_random():
    # positive components keep the margin denominator well away from
    # zero, where the two computation routes could diverge past 1e-12
    rng = SplitMix64(808)
    for _ in range(30):
        n = 2 + rng.randrange(7)
        d = 2 + rng.randrange(3)
        k = 1 + rng.randrange(min(3, n))
        x_rows = [[rng.random() + 0.05 for _ in range(d)] for _ in range(n)]
        y_rows = [[rng.random() + 0.05 for _ in range(d)] for _ in range(n)]
        got = rmss(embedding_set(x_rows), embedding_set(y_rows), k)
        want = oracle_rmss(x_rows, y_rows, k)
        for g, w in zip(got.per_sentence, want):
            assert g == pytest.approx(w, abs=1e-12)


def test_rmss_negative_denominator_skipped():
    xs = embedding_set([[1.0, 0.0]])
    ys = embedding_set([[-1.0, 0.0]])
    result = rmss(xs, ys, k=1)
    assert result.per_sentence == (None,)
    assert result.skipped == 1
    assert result.mean is None


def test_rmss_exhaustive_small_grid():
    rng = SplitMix64(313)
    for n in range(1, 9):
        for k in range(1, min(3, n) + 1):
            x_rows = [[rng.random() + 0.1 for _ in range(3)] for _ in range(n)]
            y_rows = [[rng.random() + 0.1 for _ in range(3)] for _ in range(n)]
            got = rmss(embedding_set(x_rows), embedding_set(y_rows), k)
            want = oracle_rmss(x_rows, y_rows, k)
            for g, w in zip(got.per_sentence, want):
                assert g == pytest.approx(w, abs=1e-12)


def test_rmss_scale_invariance():
    rng = SplitMix64(2)
    rows = [[rng.random() + 0.05 for _ in range(4)] for _ in range(5)]
    other = [[rng.random() + 0.05 for _ in range(4)] for _ in range(5)]
    base = rmss(embedding_set(rows), embedding_set(other), 2)
    # squares of the powers of two overflow or underflow to 0
    for factor in (100.0, 2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000):
        scaled = [list(np.array(r) * (factor if i == 2 else 1.0)) for i, r in enumerate(rows)]
        res = rmss(embedding_set(scaled), embedding_set(other), 2)
        for a, b in zip(base.per_sentence, res.per_sentence):
            assert a == pytest.approx(b, abs=1e-12), factor


def test_rmss_zero_row_rejected():
    rows = embedding_set([[1.0, 0.0], [0.5, 0.5]])
    with_zero = embedding_set([[1.0, 0.0], [0.0, 0.0]])
    for x_set, y_set in ((with_zero, rows), (rows, with_zero)):
        with pytest.raises(DataError, match="^cosine undefined for a zero vector$"):
            rmss(x_set, y_set, 1)


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([1.0, 0.0], r"^embeddings must be 2-D, got shape \(2,\)$"),
        ([[[1.0]]], r"^embeddings must be 2-D, got shape \(1, 1, 1\)$"),
        ([[1.0, 0.0], [0.0, math.nan]], "^non-finite embedding component at row 1$"),
        ([[-math.inf, 0.0]], "^non-finite embedding component at row 0$"),
    ],
)
def test_embedding_set_refuses(vectors, message):
    with pytest.raises(DataError, match=message):
        embedding_set(vectors)


def test_rmss_k_out_of_range():
    xs = embedding_set([[1.0, 0.0]])
    with pytest.raises(DataError):
        rmss(xs, xs, k=2)
    with pytest.raises(DataError):
        rmss(xs, xs, k=0)


def test_rmss_dim_mismatch():
    with pytest.raises(DataError):
        rmss(embedding_set([[1.0, 0.0]]), embedding_set([[1.0, 0.0, 0.0]]), 1)


def test_rmss_count_mismatch():
    with pytest.raises(DataError):
        rmss(embedding_set([[1.0]] ), embedding_set([[1.0], [2.0]]), 1)


# -- the tiled RMSS against the full-matrix oracle ------------------------------


def tile_budgets(n):
    """One-row tiles, tiles of n // 2 + 1 rows (not a divisor of n when n > 2), the default."""
    return (1, (n // 2 + 1) * n, semsim.TILE_ELEMENTS)


def tiled_rmss(x, y, k, budget):
    with mock.patch.object(semsim, "TILE_ELEMENTS", budget):
        return rmss(x, y, k)


@st.composite
def embedding_pairs(draw, low):
    """Aligned sets of up to 60 vectors with components in [low, 3], and a k.

    Both sets take their rows from one pool, so rows repeat within and
    across the sets and cosines tie; integer components add more ties.
    """
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 4))
    scale = draw(st.sampled_from((1, 1000)))  # components are multiples of 1/scale
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    pool = rng.integers(low * scale, 3 * scale, (draw(st.integers(1, n)), dim), endpoint=True)
    pool[~pool.any(axis=1), 0] = scale  # no zero vector
    x, y = (pool[rng.integers(0, len(pool), n)] / scale for _ in "xy")
    return embedding_set(x), embedding_set(y), draw(st.integers(1, n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=embedding_pairs(low=0))
def test_tiles_match_oracle_nonnegative(case):
    # nonnegative components: no cancellation, so tile rounding stays ~1e-16
    x, y, k = case
    want = semsim_oracle.rmss(x, y, k)
    for budget in tile_budgets(x.count):
        got = tiled_rmss(x, y, k, budget)
        assert got.skipped == want.skipped
        assert [v is None for v in got.per_sentence] == [v is None for v in want.per_sentence]
        for g, w in zip(got.per_sentence, want.per_sentence):
            assert w is None or g == pytest.approx(w, rel=1e-12, abs=0)
        assert (got.mean is None) == (want.mean is None)
        assert want.mean is None or got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=embedding_pairs(low=-3))
def test_tiles_keep_oracle_skips_mixed_sign(case):
    # a margin near 0 comes from cancellation, where rounding may flip its sign
    x, y, k = case
    want = semsim_oracle.rmss(x, y, k)
    margins = semsim_oracle.margins(x, y, k)
    for budget in tile_budgets(x.count):
        got = tiled_rmss(x, y, k, budget)
        for g, w, m in zip(got.per_sentence, want.per_sentence, margins):
            if abs(m) > 1e-9:
                assert (g is None) == (w is None)
            if abs(m) > 1e-2 and w is not None:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


def test_rmss_holds_no_n_by_n_matrix():
    n = 4096  # one default tile is 512 rows, an eighth of the matrix
    rng = np.random.default_rng(5)
    x = embedding_set(rng.standard_normal((n, 8)))
    y = embedding_set(rng.standard_normal((n, 8)))
    tracemalloc.start()
    try:
        rmss(x, y, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4  # a quarter of the float64 n x n cosine matrix
    # one tile, the two normalised input copies and a few length-n vectors
    assert peak <= 8 * semsim.TILE_ELEMENTS + 2 * x.vectors.nbytes + 12 * 8 * n


def test_load_single_vector(tmp_path):
    p = tmp_path / "e.emb"
    p.write_text("1 2\n0.5 0.5\n")
    emb = load_embeddings(p)
    assert emb.count == 1
    assert emb.dim == 2
    assert emb.vectors.tolist() == [[0.5, 0.5]]


def test_load_count_error(tmp_path):
    p = tmp_path / "e.emb"
    p.write_text("2 2\n0.5 0.5\n")
    with pytest.raises(DataError, match="promises 2"):
        load_embeddings(p)


def test_load_nonfinite_names_row(tmp_path):
    p = tmp_path / "e.emb"
    p.write_text("2 2\n0.5 0.5\nnan 1.0\n")
    with pytest.raises(DataError, match="line 3"):
        load_embeddings(p)


def test_roundtrip_precision(tmp_path):
    rng = SplitMix64(11)
    rows = [[(rng.random() - 0.5) * 10 for _ in range(5)] for _ in range(7)]
    emb = embedding_set(rows)
    p = tmp_path / "r.emb"
    save_embeddings(emb, p)
    back = load_embeddings(p)
    assert np.max(np.abs(back.vectors - emb.vectors)) <= 1e-12
