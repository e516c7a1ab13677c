import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model1_oracle
import model1_unchunked_oracle
from mtlens import align
from mtlens.align import (
    NULL,
    Alignment,
    align_corpora,
    read_pharaoh,
    train_model1,
    viterbi_align,
    write_pharaoh,
)
from mtlens.corpus import load_run
from mtlens.errors import DataError
from mtlens.rng import SplitMix64

from conftest import DATA_DIR, make_corpus, make_sentence


def test_single_pair_forces_mass():
    table = train_model1(make_corpus(["a"]), make_corpus(["x"]), iterations=3)
    assert table.prob("a", "x") == pytest.approx(1.0)


def test_das_haus_concentrates_on_the():
    hyp = make_corpus(["the house", "the book"])
    other = make_corpus(["das haus", "das buch"])
    table = train_model1(hyp, other, iterations=20)
    assert table.prob("the", "das") > table.prob("house", "das")
    assert table.prob("the", "das") > table.prob("book", "das")


def test_das_haus_hand_em_first_iteration():
    # after one EM pass das's mass is the:1/2, house:1/4, book:1/4
    hyp = make_corpus(["the house", "the book"])
    other = make_corpus(["das haus", "das buch"])
    table = train_model1(hyp, other, iterations=1)
    assert table.prob("the", "das") == pytest.approx(0.5)
    assert table.prob("house", "das") == pytest.approx(0.25)
    assert table.prob("book", "das") == pytest.approx(0.25)
    assert table.prob("the", "haus") == pytest.approx(0.5)


def test_log_likelihood_non_decreasing():
    hyp = make_corpus(["the house", "the book", "a house"])
    other = make_corpus(["das haus", "das buch", "ein haus"])
    table = train_model1(hyp, other, iterations=20)
    hist = table.log_likelihood_history
    assert len(hist) == 20
    for prev, cur in zip(hist, hist[1:]):
        assert cur >= prev - 1e-12


def test_per_source_normalization_every_iteration():
    hyp = make_corpus(["the house", "the book", "a cat sat"])
    other = make_corpus(["das haus", "das buch", "eine katze sass"])
    for iters in (1, 2, 5, 10):
        table = train_model1(hyp, other, iterations=iters)
        # one sum per other-side word (NULL included) over its pairs
        other_id = table.pair_keys // len(table.hyp_ids)
        sums = np.bincount(other_id, weights=table.probs)
        assert len(sums) == len(table.other_ids)
        assert sums == pytest.approx(np.ones(len(sums)), abs=1e-9)


def test_empty_bitext_rejected():
    with pytest.raises(DataError):
        train_model1(make_corpus([]), make_corpus([]))
    with pytest.raises(DataError):
        train_model1(make_corpus([""]), make_corpus([""]))


def test_viterbi_identity_pair():
    hyp = make_corpus(["w"])
    table = train_model1(hyp, hyp, iterations=2)
    aln = viterbi_align(table, make_sentence("w"), make_sentence("w"))
    assert aln == frozenset({(0, 0)})


def test_viterbi_das_haus():
    hyp = make_corpus(["the house", "the book"])
    other = make_corpus(["das haus", "das buch"])
    table = train_model1(hyp, other, iterations=20)
    aln = viterbi_align(table, make_sentence("the house"), make_sentence("das haus"))
    assert aln == frozenset({(0, 0), (1, 1)})


def test_viterbi_unseen_word_unlinked():
    table = train_model1(make_corpus(["a"]), make_corpus(["x"]), iterations=2)
    aln = viterbi_align(table, make_sentence("zzz"), make_sentence("x"))
    assert aln == frozenset()


def test_viterbi_at_most_one_link_per_token():
    hyp = make_corpus(["a b a", "b a b"])
    other = make_corpus(["x y x", "y x y"])
    table = train_model1(hyp, other, iterations=5)
    for h, o in zip(hyp, other):
        aln = viterbi_align(table, h, o)
        hyp_indexes = [i for i, _ in aln]
        assert len(hyp_indexes) == len(set(hyp_indexes))


def test_null_absorbs_only_on_strictly_higher_probability():
    hyp = make_corpus(["the house", "the book"])
    other = make_corpus(["das haus", "das buch"])
    table = train_model1(hyp, other, iterations=20)
    # NULL and "das" co-occur identically here, so their rows tie; the
    # real position must win the tie
    assert table.prob("the", NULL) == pytest.approx(table.prob("the", "das"))
    aln = viterbi_align(table, make_sentence("the house"), make_sentence("das haus"))
    assert (0, 0) in aln


def test_pharaoh_roundtrip(tmp_path):
    alignments = [
        Alignment(frozenset({(0, 0), (1, 2)})),
        Alignment(frozenset()),
        Alignment(frozenset({(2, 1)})),
    ]
    p = tmp_path / "a.aln"
    write_pharaoh(alignments, p)
    back = read_pharaoh(p)
    assert back == alignments


def test_pharaoh_format(tmp_path):
    p = tmp_path / "a.aln"
    write_pharaoh([Alignment(frozenset({(0, 0), (1, 2)}))], p)
    assert p.read_text() == "0-0 1-2\n"


def test_pharaoh_parse_error_names_line(tmp_path):
    p = tmp_path / "bad.aln"
    p.write_text("3-x\n")
    with pytest.raises(DataError, match="line 1"):
        read_pharaoh(p)


def test_align_corpora_counts():
    hyp = make_corpus(["a b", "c"])
    other = make_corpus(["x y", "z"])
    alignments = align_corpora(hyp, other, iterations=3)
    assert len(alignments) == 2


def test_train_model1_memory_per_link():
    rng = SplitMix64(4)

    def line(prefix):
        return " ".join(f"{prefix}{rng.randrange(400)}" for _ in range(20 + rng.randrange(21)))

    hyp = make_corpus([line("h") for _ in range(200)])
    other = make_corpus([line("o") for _ in range(200)])
    links = sum(len(h.tokens) * (len(o.tokens) + 1) for h, o in zip(hyp, other))
    tracemalloc.start()
    try:
        train_model1(hyp, other, iterations=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 38 bytes per link; whole-bitext link arrays took about 62,
    # and keeping the link-building arrays through EM about 83
    assert peak < 44 * links


def test_train_model1_memory_is_bounded_per_link_and_pair():
    rng = SplitMix64(4)

    def line(prefix):
        return " ".join(f"{prefix}{rng.randrange(5000)}" for _ in range(20 + rng.randrange(21)))

    hyp = make_corpus([line("h") for _ in range(400)])
    other = make_corpus([line("o") for _ in range(400)])
    links = sum(len(h.tokens) * (len(o.tokens) + 1) for h, o in zip(hyp, other))
    assert links > 4 * align.LINK_CHUNK
    tracemalloc.start()
    try:
        table = train_model1(hyp, other, iterations=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 24 bytes per link to intern and through EM, 16 per pair (key and t:
    # the old t is dropped before the next is built, which is normalised
    # one range of word runs at a time) and a megabyte for the chunk
    # temporaries and the interned sentences; one more array spanning
    # the bitext adds 8 bytes per link, 3 MB here, and one more spanning
    # the table 8 bytes per pair, also 3 MB
    assert peak < 26 * links + 16 * len(table.pair_keys) + 2**20


# -- equality with the nested-dict EM in tests/model1_oracle.py ---------------

EXACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_same_as_oracle(hyp, other, iterations, probes=()):
    """Table, history and Viterbi links equal the oracle's bit for bit.

    probes are extra (hyp, other) sentence pairs to align, which may
    hold words never seen in training.
    """
    table = train_model1(hyp, other, iterations=iterations)
    oracle = model1_oracle.train_model1(hyp, other, iterations=iterations)
    assert table.log_likelihood_history == oracle.log_likelihood_history
    oracle_pairs = [(h, o) for o, row in oracle.t.items() for h in row]
    assert len(table.pair_keys) == len(oracle_pairs)
    for h, o in oracle_pairs:
        assert table.prob(h, o) == oracle.t[o][h], (h, o)
    for h_sent, o_sent in [*zip(hyp, other), *probes]:
        assert viterbi_align(table, h_sent, o_sent) == model1_oracle.viterbi_align(
            oracle, h_sent, o_sent
        )
    # the training pass's own links, untrainable pairs included
    assert align_corpora(hyp, other, iterations) == [
        model1_oracle.viterbi_align(oracle, h, o) for h, o in zip(hyp, other)
    ]
    return table, oracle


@st.composite
def bitexts(draw):
    """1-6 pairs over 2-3-word vocabularies, so words repeat on both
    sides and t values tie exactly; either side may be empty."""
    hyp_words = ["a", "b", "c"][: draw(st.integers(2, 3))]
    other_words = ["x", "y", "a"][: draw(st.integers(2, 3))]
    n = draw(st.integers(1, 6))

    def side(words):
        line = st.lists(st.sampled_from(words), max_size=6).map(" ".join)
        return make_corpus(draw(st.lists(line, min_size=n, max_size=n)))

    return side(hyp_words), side(other_words)


@EXACT
@given(bitexts(), st.integers(1, 8))
def test_equals_dict_oracle_on_tiny_vocabularies(bitext, iterations):
    hyp, other = bitext
    if not any(h.tokens and o.tokens for h, o in zip(hyp, other)):
        for train in (train_model1, model1_oracle.train_model1):
            with pytest.raises(DataError):
                train(hyp, other, iterations=iterations)
        return
    probes = [
        (make_sentence("a zzz b a"), make_sentence("x y zzz")),  # unseen on both sides
        (make_sentence("zzz"), make_sentence("x")),
        (make_sentence("b a"), make_sentence("")),
        (make_sentence(""), make_sentence("y x")),
        (make_sentence("x a"), make_sentence("a b")),  # words from the wrong side
    ]
    table, oracle = assert_same_as_oracle(hyp, other, iterations, probes)
    # every word pair, seen together or not, NULL and an unseen word included
    for h in ("a", "b", "c", "x", "zzz"):
        for o in (NULL, "x", "y", "a", "b", "zzz"):
            assert table.prob(h, o) == oracle.prob(h, o), (h, o)


@pytest.mark.parametrize("checkpoint", ["000100", "000200", "000300"])
@pytest.mark.parametrize("side", ["reference", "source"])
def test_equals_dict_oracle_on_fixture_run(checkpoint, side):
    run = load_run(DATA_DIR / "run3")
    hyp = next(c.hypotheses for c in run.checkpoints if c.checkpoint_id == checkpoint)
    other = run.reference if side == "reference" else run.source
    probes = list(zip(run.reference, run.source))  # words of the wrong side
    assert_same_as_oracle(hyp, other, 10, probes)


def test_equals_dict_oracle_on_seeded_bitexts():
    # with np.log in place of math.log, 3 of these 400 histories differ
    # in the last bit; most single-row differences vanish in the sum
    rng = SplitMix64(1)

    def line(prefix, vocab):
        return " ".join(f"{prefix}{rng.randrange(vocab)}" for _ in range(1 + rng.randrange(10)))

    for _ in range(400):
        hyp = make_corpus([line("h", 6) for _ in range(8)])
        other = make_corpus([line("o", 20) for _ in range(8)])
        assert_same_as_oracle(hyp, other, 5)


# -- chunked EM against both oracles, bit for bit ------------------------------


def assert_same_bits(hyp, other, iterations):
    """pair_keys, probs, history and alignments equal both oracles' bit for bit."""
    table = train_model1(hyp, other, iterations=iterations)
    unchunked = model1_unchunked_oracle.train_model1(hyp, other, iterations=iterations)
    assert (table.hyp_ids, table.other_ids) == (unchunked.hyp_ids, unchunked.other_ids)
    for name in ("pair_keys", "probs"):
        got, want = getattr(table, name), getattr(unchunked, name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
    assert table.log_likelihood_history == unchunked.log_likelihood_history
    assert table.alignments == unchunked.alignments

    oracle = model1_oracle.train_model1(hyp, other, iterations=iterations)
    assert table.log_likelihood_history == oracle.log_likelihood_history
    n_hyp = len(table.hyp_ids)
    want = sorted(
        (table.other_ids[o] * n_hyp + table.hyp_ids[h], p)
        for o, row in oracle.t.items()
        for h, p in row.items()
    )
    assert table.pair_keys.tolist() == [key for key, _ in want]
    assert table.probs.tobytes() == np.array([p for _, p in want]).tobytes()
    assert list(table.alignments) == [
        model1_oracle.viterbi_align(oracle, h, o) for h, o in zip(hyp, other)
    ]


@st.composite
def chunked_bitexts(draw):
    """1-6 pairs of 0-10 tokens over 2-4-word vocabularies, one pair trainable.

    A 10 x 10 pair has 110 links, more than a 64-link chunk holds.
    """
    hyp_words = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
    other_words = ["x", "y", "a", "z"][: draw(st.integers(2, 4))]
    line = st.lists(st.sampled_from(hyp_words), max_size=10).map(" ".join)
    other_line = st.lists(st.sampled_from(other_words), max_size=10).map(" ".join)
    pairs = draw(st.lists(st.tuples(line, other_line), min_size=1, max_size=6))
    pairs.insert(draw(st.integers(0, len(pairs))), ("a b", "x"))
    return make_corpus([h for h, _ in pairs]), make_corpus([o for _, o in pairs])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chunked_bitexts(), st.integers(1, 5))
def test_chunked_em_equals_both_oracles(bitext, iterations):
    hyp, other = bitext
    # one-link chunks, chunks that most pairs overflow, and the default
    for chunk in (1, 7, 64, align.LINK_CHUNK):
        with mock.patch.object(align, "LINK_CHUNK", chunk):
            assert_same_bits(hyp, other, iterations)


def test_pair_larger_than_a_chunk_equals_both_oracles():
    rng = SplitMix64(9)

    def line(prefix, length):
        return " ".join(f"{prefix}{rng.randrange(60)}" for _ in range(length))

    # the 200 x 199 pair holds 200 * (199 + 1) links, NULL included
    lengths = [(5, 7), (200, 199), (0, 4), (6, 0), (30, 25), (1, 1)]
    hyp = make_corpus([line("h", n) for n, _ in lengths])
    other = make_corpus([line("o", m) for _, m in lengths])
    assert 200 * (199 + 1) > align.LINK_CHUNK
    assert_same_bits(hyp, other, 3)
