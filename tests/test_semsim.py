import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        ([[]], r"^embeddings need at least one component, got shape \(1, 0\)$"),
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


# -- the y-side from the x-side tiles against two products ---------------------


def merges(n, k):
    """The path rule: the y-side comes from the x-side tiles when k <= rows < n // k."""
    rows = max(1, semsim.TILE_ELEMENTS // n)
    return k <= rows < n // k


def merged_rmss(x, y, k):
    """rmss with the y-side merged from the x-side tiles whatever the path rule says.

    None when the merge gives up.
    """
    xn = semsim._unit_rows(x.vectors)
    yn = semsim._unit_rows(y.vectors)
    columns = semsim._ColumnTopK(x.count, k)
    x_top, paired = semsim._top_k_sums(xn, yn, k, columns)
    if columns.given_up:
        return None
    return semsim_oracle.rmss_result(paired, x_top, columns.sums(), k)


def check_merged_rmss(x, y, k, tile_rows, band_rows, give_up):
    """The merge equals column_rmss, and rmss the oracle of its path, bit for bit."""
    n = x.count
    with mock.patch.multiple(
        semsim,
        TILE_ELEMENTS=tile_rows * n,
        BAND_ELEMENTS=band_rows * n,
        GIVE_UP=give_up,
    ):
        columns = semsim_oracle.column_rmss(x, y, k)
        products = semsim_oracle.two_product_rmss(x, y, k)
        merged = merged_rmss(x, y, k)
        if merged is not None:
            assert_same_result(merged, columns)
        one_product = merges(n, k) and merged is not None
        assert_same_result(rmss(x, y, k), columns if one_product else products)
        if semsim_oracle.cells_agree(x, y):
            assert_same_result(columns, products)


def merge_settings(n, k):
    """(tile rows, band rows, give-up multiple) to try.

    One-row tiles, tiles of fewer than k rows, of k rows and of rows that
    do not divide n, one-row bands and bands of a whole tile, and the
    default give-up rule. merged_rmss runs the merge at every setting;
    rmss runs it where the path rule says so.
    """
    half = n // 2 + 1
    return (
        (1, 1, math.inf),
        (max(1, k - 1), 2, math.inf),
        (k, 1, math.inf),
        (half, half, math.inf),
        (3, 2, semsim.GIVE_UP),
        (half, 1, semsim.GIVE_UP),
    )


def assert_same_result(got, want):
    assert got.per_sentence == want.per_sentence
    assert got.mean == want.mean
    assert got.skipped == want.skipped


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=embedding_pairs(low=-3))
def test_merged_y_side_equals_two_products(case):
    # the tiles' cells, merged per column, summed as a row is summed
    x, y, k = case
    for setting in merge_settings(x.count, k):
        check_merged_rmss(x, y, k, *setting)


@st.composite
def banded_tiles(draw):
    """Cells of a product with n columns, its tile heights, a k and a band height.

    Values are small integers, so cells tie with each other and with the
    k-th values. A first tile of fewer than k rows leaves -inf slots
    open, and a band taller than k can hit a column more than k times.
    """
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    heights = [draw(st.integers(1, k + 1)), *draw(st.lists(st.integers(1, 9), max_size=3))]
    size = sum(heights) * n
    cells = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return hand_tiles(np.reshape(cells, (-1, n)), heights, k, draw(st.integers(1, 6)))


def hand_tiles(cells, heights, k, band_rows):
    return np.array(cells, dtype=float), heights, k, band_rows


def kth_largest(cells, k):
    """Per column of cells, its k-th largest value; -inf where it has fewer than k."""
    if len(cells) < k:
        return np.full(cells.shape[1], -np.inf)
    return np.sort(cells, axis=0)[-k]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=banded_tiles())
# k = 3: one dense row leaves two -inf slots, a five-row band hits both
# columns five times, and cells tie with the kept values
@example(case=hand_tiles([[1, 2], [1, 0], [3, 2], [2, 2], [3, -1], [1, 2]], [1, 5], 3, 5))
# k = 2, one-row bands, cells tying with the k-th value in every column
@example(
    case=hand_tiles(
        [[2, 1, 0], [1, 1, 0], [1, 2, 0], [3, 1, 0], [2, 2, -1], [1, 3, 0]], [2, 3, 1], 2, 1
    )
)
def test_band_merge_equals_sorting_each_column(case):
    # each column's k largest, largest first, whichever way its cells entered
    cells, heights, k, band_rows = case
    n = cells.shape[1]
    columns = semsim._ColumnTopK(n, k)
    want_merged = 0
    with mock.patch.multiple(semsim, BAND_ELEMENTS=band_rows * n, GIVE_UP=math.inf):
        start = 0
        for height in heights:
            tile = cells[start : start + height]
            columns.add(tile.copy(), start)
            if start:  # a later tile: count its cells above the k-th value before their band
                for b in range(0, height, band_rows):
                    band = tile[b : b + band_rows]
                    want_merged += np.count_nonzero(band > kth_largest(cells[: start + b], k))
            start += height
    want = np.full((k, n), -np.inf)
    ranked = np.sort(cells, axis=0)[::-1][:k]
    want[: len(ranked)] = ranked
    assert columns.top.tobytes() == want.tobytes()
    assert columns.merged == want_merged


def rising_columns(n, dim, rng):
    """Vectors whose cosines rise down every column of xn @ yn.T.

    Every y_j is u plus noise in the dimensions 2.., and x_i is u plus
    s_i (e_0 - e_1) with s_i falling in i. Since u, e_0 - e_1 and the
    noise are orthogonal, x_i . y_j is the same for every i, while
    |x_i| falls as i grows.
    """
    u = np.ones(dim)
    noise = np.zeros((n, dim))
    noise[:, 2:] = 0.1 * rng.standard_normal((n, dim - 2))
    v = np.zeros(dim)
    v[:2] = (1.0, -1.0)
    s = np.linspace(4.0, 0.0, n)
    return embedding_set(u + s[:, None] * v), embedding_set(u + noise)


def test_rising_columns_give_up_and_equal_two_products():
    rng = np.random.default_rng(8)
    for n, k in ((30, 1), (30, 7), (45, 12)):
        x, y = rising_columns(n, 5, rng)
        for setting in merge_settings(n, k):
            check_merged_rmss(x, y, k, *setting)


def matmul_calls(x, y, k):
    with mock.patch.object(semsim.np, "matmul", wraps=np.matmul) as matmul:
        rmss(x, y, k)
    return matmul.call_count


def test_path_rule_counts_products():
    # one product is a matmul per tile, two products twice as many
    rng = np.random.default_rng(9)
    n, dim = 2048, 128  # two tiles of 1024 rows: only k = 1 merges
    spread = [embedding_set(rng.standard_normal((n, dim))) for _ in "xy"]
    for k, calls in ((1, 2), (2, 4), (64, 4)):
        assert matmul_calls(*spread, k) == calls, k
    got = rmss(*spread, 1)
    assert_same_result(got, semsim_oracle.column_rmss(*spread, 1))
    if semsim_oracle.cells_agree(*spread):  # true with OpenBLAS at n = 2048
        assert_same_result(got, semsim_oracle.two_product_rmss(*spread, 1))
    assert_same_result(rmss(*spread, 64), semsim_oracle.two_product_rmss(*spread, 64))
    # the merge the rule no longer takes at k = 4 still equals the columns of the tiles
    assert_same_result(merged_rmss(*spread, 4), semsim_oracle.column_rmss(*spread, 4))
    one_tile = [embedding_set(v.vectors[:72]) for v in spread]
    assert matmul_calls(*one_tile, 4) == 2
    wide = [embedding_set(rng.standard_normal((4096, 8))) for _ in "xy"]  # 8 tiles of 512 rows
    assert matmul_calls(*wide, 4) == 8
    assert matmul_calls(*wide, 8) == 16
    rising = rising_columns(n, dim, rng)
    assert matmul_calls(*rising, 1) == 4  # gives up in the second tile
    assert_same_result(rmss(*rising, 1), semsim_oracle.two_product_rmss(*rising, 1))
    with mock.patch.object(semsim, "GIVE_UP", math.inf):  # never gives up: one product
        assert matmul_calls(*rising, 1) == 2


def test_rmss_holds_no_n_by_n_matrix():
    n = 4096  # one default tile is 512 rows, an eighth of the matrix
    rng = np.random.default_rng(5)
    # the y-side from the x-side tiles at k = 4, from a second product at the larger k
    for dim, k in ((8, 4), (128, 4), (8, 1024), (8, 4096)):
        x = embedding_set(rng.standard_normal((n, dim)))
        y = embedding_set(rng.standard_normal((n, dim)))
        tracemalloc.start()
        try:
            rmss(x, y, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4  # a quarter of the float64 n x n cosine matrix
        # one tile, the two normalised input copies and a few length-n vectors
        assert peak <= 8 * semsim.TILE_ELEMENTS + 2 * x.vectors.nbytes + 12 * 8 * n, (dim, k)


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
