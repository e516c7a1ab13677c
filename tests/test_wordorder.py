import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlens import wordorder
from mtlens.align import Alignment
from mtlens.corpus import AnalysisRun, CheckpointRun
from mtlens.errors import DataError
from mtlens.rng import SplitMix64
from mtlens.wordorder import (
    WORDORDER_METRICS,
    corpus_frs,
    corpus_wordorder,
    frs,
    levenshtein,
    ter,
)

from conftest import make_corpus, make_sentence
from wordorder_oracle import best_shift as oracle_best_shift
from wordorder_oracle import corpus_wordorder as oracle_wordorder


def oracle_chunks(projected):
    """Count maximal runs of consecutive increasing positions by grouping."""
    if not projected:
        return 1
    groups = 1
    run_start = 0
    for idx in range(1, len(projected)):
        if projected[idx] != projected[run_start] + (idx - run_start):
            groups += 1
            run_start = idx
    return groups


def oracle_frs(projected, m):
    c = oracle_chunks(projected)
    if m <= 1:
        return 1.0
    return min(1.0, max(0.0, 1.0 - (c - 1) / (m - 1)))


def oracle_levenshtein(a, b):
    """Full-matrix DP, written independently of the production routine."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[rows - 1][cols - 1]


def perm_alignment(perm):
    return Alignment(frozenset((i, j) for i, j in enumerate(perm)))


def tokens_sentence(n):
    return make_sentence(" ".join(f"t{i}" for i in range(n)))


def test_frs_identity():
    s = tokens_sentence(4)
    r = frs(perm_alignment([0, 1, 2, 3]), s, s)
    assert r.frs == 1.0
    assert r.chunks == 1
    assert r.ref_len == 4


def test_frs_reversal():
    s = tokens_sentence(4)
    r = frs(perm_alignment([3, 2, 1, 0]), s, s)
    assert r.frs == 0.0
    assert r.chunks == 4


def test_frs_two_chunks():
    s = tokens_sentence(4)
    r = frs(perm_alignment([2, 3, 0, 1]), s, s)
    assert r.chunks == 2
    assert r.frs == pytest.approx(1.0 - 1.0 / 3.0)


def test_frs_exhaustive_permutations():
    for n in range(1, 8):
        s = tokens_sentence(n)
        for perm in itertools.permutations(range(n)):
            got = frs(perm_alignment(perm), s, s)
            assert got.frs == pytest.approx(oracle_frs(list(perm), n), abs=0)
            assert got.chunks == oracle_chunks(list(perm))


def test_frs_empty_other_rejected():
    with pytest.raises(DataError):
        frs(Alignment(frozenset()), tokens_sentence(2), tokens_sentence(0))


def test_frs_single_word_other():
    r = frs(perm_alignment([0]), tokens_sentence(1), tokens_sentence(1))
    assert r.frs == 1.0


def test_frs_out_of_range_link():
    with pytest.raises(DataError):
        frs(Alignment(frozenset({(5, 0)})), tokens_sentence(2), tokens_sentence(2))


def test_frs_multilink_uses_smallest_j():
    s = tokens_sentence(3)
    aln = Alignment(frozenset({(0, 2), (0, 0), (1, 1), (2, 2)}))
    r = frs(aln, s, s)
    # projection [0,1,2] -> one chunk
    assert r.chunks == 1
    assert r.frs == 1.0


def test_frs_unaligned_tokens_dropped():
    s = tokens_sentence(4)
    aln = Alignment(frozenset({(0, 0), (3, 1)}))
    r = frs(aln, s, s)
    assert r.chunks == 1  # projection [0,1]
    assert r.frs == 1.0


def test_frs_clamped_to_zero():
    hyp = tokens_sentence(5)
    other = tokens_sentence(2)
    aln = Alignment(frozenset({(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)}))
    r = frs(aln, hyp, other)
    assert r.frs == 0.0  # raw formula would be negative


def test_ter_identity():
    s = make_sentence("a b c")
    r = ter(s, s)
    assert r.edits == 0
    assert r.ter == 0.0


def test_ter_single_deletion():
    r = ter(make_sentence("a b c"), make_sentence("a c"))
    assert r.edits == 1
    assert r.ter == 0.5


def test_ter_empty_reference():
    with pytest.raises(DataError):
        ter(make_sentence("a"), make_sentence(""))


def test_ter_can_exceed_one():
    r = ter(make_sentence("a b c d e"), make_sentence("x"))
    assert r.ter > 1.0


def test_ter_matches_dp_oracle_random():
    rng = SplitMix64(99)
    for _ in range(1000):
        n1 = rng.randrange(9)
        n2 = 1 + rng.randrange(8)
        a = [f"v{rng.randrange(5)}" for _ in range(n1)]
        b = [f"v{rng.randrange(5)}" for _ in range(n2)]
        hyp = make_sentence(" ".join(a))
        ref = make_sentence(" ".join(b))
        assert ter(hyp, ref).edits == oracle_levenshtein(a, b)


def test_shift_example_b_a():
    hyp = make_sentence("b a")
    ref = make_sentence("a b")
    off = ter(hyp, ref, shifts=False)
    on = ter(hyp, ref, shifts=True)
    assert off.ter == 1.0
    assert on.edits == 1  # one shift, zero remaining edits
    assert on.ter == 0.5


def test_shifts_never_worse():
    rng = SplitMix64(4242)
    for _ in range(300):
        n1 = rng.randrange(9)
        n2 = 1 + rng.randrange(8)
        hyp = make_sentence(" ".join(f"v{rng.randrange(5)}" for _ in range(n1)))
        ref = make_sentence(" ".join(f"v{rng.randrange(5)}" for _ in range(n2)))
        assert ter(hyp, ref, shifts=True).ter <= ter(hyp, ref, shifts=False).ter


def test_ter_self_zero_with_shifts():
    s = make_sentence("q w e r t")
    assert ter(s, s, shifts=True).ter == 0.0


def small_vocab_pairs():
    """Hypothesis and reference token lists over a vocabulary of 1-4 words, where ties are common."""
    return st.integers(1, 4).flatmap(
        lambda v: st.tuples(
            st.lists(st.sampled_from("abcd"[:v]), max_size=12),
            st.lists(st.sampled_from("abcd"[:v]), min_size=1, max_size=12),
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_vocab_pairs())
def test_shift_search_equals_scoring_every_candidate(pair):
    # every greedy step picks the shift the oracle picks, so the edits agree too
    hyp, ref = pair
    dist = levenshtein(hyp, ref)
    shifts = 0
    while dist > 0:
        found = wordorder._best_shift(hyp, ref, dist)
        assert found == oracle_best_shift(hyp, ref, dist)
        if found is None:
            break
        dist, hyp = found
        shifts += 1
    got = ter(make_sentence(" ".join(pair[0])), make_sentence(" ".join(ref)), shifts=True)
    assert got.edits == shifts + dist


def test_shift_search_scores_each_distinct_candidate_once():
    # b a^n against a^n b: every candidate is the b moved among the a's, n distinct lists
    for n, calls in ((20, 21), (40, 41), (60, 61)):
        hyp = make_sentence(" ".join(["b"] + ["a"] * n))
        ref = make_sentence(" ".join(["a"] * n + ["b"]))
        with mock.patch.object(wordorder, "levenshtein", wraps=levenshtein) as lev:
            assert ter(hyp, ref, shifts=True).edits == 1
        assert lev.call_count == calls, n  # the unshifted distance, then one per distinct candidate


def _tiny_run(hyps_by_ckpt, src_lines, ref_lines):
    src = make_corpus(src_lines)
    ref = make_corpus(ref_lines)
    ckpts = tuple(
        CheckpointRun(cid, make_corpus(lines))
        for cid, lines in sorted(hyps_by_ckpt.items())
    )
    return AnalysisRun(source=src, reference=ref, checkpoints=ckpts)


def test_corpus_wordorder_identity_fixture():
    # word pairs co-occur at most once so EM can tell words apart and
    # the identity hypothesis aligns monotonically
    ref = ["a b c", "a d e", "b d f", "c e f"]
    run = _tiny_run({"c1": ref}, ["w x", "w y", "x z", "y z"], ref)
    frs_series = corpus_wordorder(run, "frs-vs-ref", iterations=5)
    ter_series = corpus_wordorder(run, "ter-vs-ref", iterations=5)
    assert frs_series.points[0].value == pytest.approx(1.0)
    assert ter_series.points[0].value == pytest.approx(0.0)
    assert frs_series.points[0].skip_count == 0


def test_corpus_wordorder_improving_checkpoints():
    ref = ["a b c d", "e f g h"]
    run = _tiny_run(
        {"c1": ["a x y d", "e f z w"], "c2": ["a b c d", "e f g h"]},
        ["s t u v", "s t u v"],
        ref,
    )
    ter_series = corpus_wordorder(run, "ter-vs-ref", iterations=5)
    values = [p.value for p in ter_series.points]
    assert values[0] > values[1]
    assert values[1] == pytest.approx(0.0)


def test_corpus_wordorder_skips_empty_reference():
    run = _tiny_run({"c1": ["a b", "c d"]}, ["x y", "z w"], ["a b", ""])
    frs_series = corpus_wordorder(run, "frs-vs-ref", iterations=3)
    ter_series = corpus_wordorder(run, "ter-vs-ref", iterations=3)
    assert frs_series.points[0].skip_count == 1
    assert ter_series.points[0].skip_count == 1


def test_corpus_wordorder_versus_source():
    src = ["a b c", "a d e", "b d f", "c e f"]
    run = _tiny_run({"c1": src}, src, ["x y", "x z", "y z", "y x"])
    frs_series = corpus_wordorder(run, "frs-vs-src", iterations=5)
    ter_series = corpus_wordorder(run, "ter-vs-src", iterations=5)
    assert frs_series.metric_name == "frs-vs-src"
    assert ter_series.metric_name == "ter-vs-src"
    assert frs_series.points[0].value == pytest.approx(1.0)
    assert ter_series.points[0].value == pytest.approx(0.0)


def test_corpus_wordorder_repeatable():
    ref = ["a b c", "d e f", "g h"]
    run = _tiny_run({"c1": ["a c b", "d e f", "h g"]}, ["1 2 3", "4 5 6", "7 8"], ref)
    for metric in WORDORDER_METRICS:
        first = corpus_wordorder(run, metric, iterations=4)
        assert corpus_wordorder(run, metric, iterations=4) == first


def test_corpus_wordorder_unknown_metric():
    run = _tiny_run({"c1": ["a b"]}, ["x y"], ["a b"])
    with pytest.raises(DataError, match="unknown word-order metric"):
        corpus_wordorder(run, "bleu")


def test_corpus_frs_untrainable_skips_every_sentence():
    hyp = make_corpus(["a b", "", "c"])
    assert corpus_frs(hyp, make_corpus(["", "x", ""]), iterations=3) == ([], 3)


def test_corpus_frs_checks_inputs_before_untrainable_fallback():
    # no pair has tokens on both sides, yet the bad inputs are named
    with pytest.raises(DataError, match="length mismatch: 2 vs 1"):
        corpus_frs(make_corpus(["a", ""]), make_corpus([""]), iterations=3)
    with pytest.raises(DataError, match="need at least one EM iteration"):
        corpus_frs(make_corpus(["a", ""]), make_corpus(["", ""]), iterations=0)


@st.composite
def small_runs(draw):
    """1-3 checkpoints over 1-4 sentences, 2-3-word vocabularies and many
    empty lines, so whole checkpoints with no trainable pair come up."""
    n = draw(st.integers(1, 4))
    vocab = draw(st.sampled_from(["ab", "abc"]))
    line = st.lists(st.sampled_from(vocab), max_size=3).map(" ".join)
    lines = st.lists(line, min_size=n, max_size=n)
    empty = st.just([""] * n)
    hyps = {
        f"c{i}": draw(st.one_of(lines, empty))
        for i in range(draw(st.integers(1, 3)))
    }
    return _tiny_run(hyps, draw(lines), draw(st.one_of(lines, empty)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(run=small_runs(), iterations=st.integers(1, 3))
def test_corpus_wordorder_matches_pair_oracle(run, iterations):
    for versus, suffix in (("reference", "ref"), ("source", "src")):
        frs_want, ter_want = oracle_wordorder(run, versus, iterations)
        assert corpus_wordorder(run, f"frs-vs-{suffix}", iterations) == frs_want
        assert corpus_wordorder(run, f"ter-vs-{suffix}", iterations) == ter_want


def test_levenshtein_basics():
    assert levenshtein([], []) == 0
    assert levenshtein(["a"], []) == 1
    assert levenshtein("kitten", "sitting") == 3


def tokens_of_length(n):
    return st.lists(st.sampled_from("abc"), min_size=n, max_size=n)


# lengths drawn first, so patterns past 64 tokens (more than one
# machine word of bit-vector) come up as often as short ones
LENGTHS = st.integers(0, 150).flatmap(tokens_of_length)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(LENGTHS, LENGTHS)
def test_levenshtein_matches_dp_oracle(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)
