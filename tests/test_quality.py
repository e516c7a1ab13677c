import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bleu_oracle
from mtlens import quality
from mtlens.corpus import Sentence
from mtlens.errors import DataError
from mtlens.quality import corpus_bleu, sentence_bleu
from mtlens.rng import SplitMix64

from conftest import make_corpus, make_sentence, outcome


def oracle_corpus_bleu(hyp_lines, ref_lines):
    """Independent BLEU-4: explicit dict counting, product form."""
    matched = {n: 0 for n in range(1, 5)}
    total = {n: 0 for n in range(1, 5)}
    hyp_len = ref_len = 0
    for h_line, r_line in zip(hyp_lines, ref_lines):
        h = h_line.split()
        r = r_line.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            h_counts = {}
            for i in range(len(h) - n + 1):
                g = " ".join(h[i : i + n])
                h_counts[g] = h_counts.get(g, 0) + 1
            r_counts = {}
            for i in range(len(r) - n + 1):
                g = " ".join(r[i : i + n])
                r_counts[g] = r_counts.get(g, 0) + 1
            for g, cnt in h_counts.items():
                total[n] += cnt
                matched[n] += min(cnt, r_counts.get(g, 0))
    prec = []
    for n in range(1, 5):
        if total[n] == 0:
            continue  # order absent from the whole corpus: effective order
        if matched[n] == 0:
            return 0.0
        prec.append(matched[n] / total[n])
    if not prec or hyp_len == 0:
        return 0.0
    geo = 1.0
    for p in prec:
        geo *= p
    geo **= 1.0 / len(prec)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * geo


def test_identity_scores_100():
    c = make_corpus(["the cat sat on the mat", "a b c d e"])
    assert corpus_bleu(c, c).score == pytest.approx(100.0, abs=1e-9)


def test_zero_unigram_overlap():
    hyp = make_corpus(["x y z w"])
    ref = make_corpus(["a b c d"])
    assert corpus_bleu(hyp, ref).score == 0.0


def test_clipping_the_the():
    hyp = make_corpus(["the the the the"])
    ref = make_corpus(["the cat sat down"])
    score = corpus_bleu(hyp, ref)
    assert score.precisions[0] == pytest.approx(1 / 4)
    assert score.precisions[1] == 0.0
    assert score.score == 0.0


def test_length_mismatch():
    with pytest.raises(DataError):
        corpus_bleu(make_corpus(["a"]), make_corpus(["a", "b"]))


def test_all_empty_reference_rejected():
    with pytest.raises(DataError):
        corpus_bleu(make_corpus(["a"]), make_corpus([""]))


def test_empty_hypothesis_scores_zero():
    score = corpus_bleu(make_corpus([""]), make_corpus(["a b"]))
    assert score.score == 0.0
    assert score.brevity_penalty == 0.0


def test_lowercase_flag():
    hyp = make_corpus(["The Cat"])
    ref = make_corpus(["the cat"])
    assert corpus_bleu(hyp, ref).score == 0.0
    assert corpus_bleu(hyp, ref, lowercase=True).score == pytest.approx(100.0)


def test_sentence_order_invariance():
    hyp = make_corpus(["a b c", "d e f g", "h i"])
    ref = make_corpus(["a b x", "d e f y", "h z"])
    base = corpus_bleu(hyp, ref)
    perm = [2, 0, 1]
    hyp_p = make_corpus([hyp[i].raw for i in perm])
    ref_p = make_corpus([ref[i].raw for i in perm])
    assert corpus_bleu(hyp_p, ref_p).score == base.score


def random_line(rng, max_len=6, vocab=5):
    n = 1 + rng.randrange(max_len)
    return " ".join("w%d" % rng.randrange(vocab) for _ in range(n))


def test_matches_oracle_on_random_tiny_pairs():
    rng = SplitMix64(123)
    for _ in range(200):
        pairs = 1 + rng.randrange(4)
        hyp_lines = [random_line(rng) for _ in range(pairs)]
        ref_lines = [random_line(rng) for _ in range(pairs)]
        expected = oracle_corpus_bleu(hyp_lines, ref_lines)
        got = corpus_bleu(make_corpus(hyp_lines), make_corpus(ref_lines)).score
        assert got == pytest.approx(expected, abs=1e-9), (hyp_lines, ref_lines)


def test_identity_on_random_corpora():
    rng = SplitMix64(321)
    for _ in range(100):
        lines = [random_line(rng, max_len=8, vocab=9) for _ in range(1 + rng.randrange(5))]
        c = make_corpus(lines)
        assert corpus_bleu(c, c).score == pytest.approx(100.0, abs=1e-9)


def test_score_bounds():
    rng = SplitMix64(77)
    for _ in range(100):
        hyp = make_corpus([random_line(rng)])
        ref = make_corpus([random_line(rng)])
        s = corpus_bleu(hyp, ref).score
        assert 0.0 <= s <= 100.0


# sentence-level smoothing


def test_sentence_identity_long():
    s = make_sentence("a b c d e")
    assert sentence_bleu(s, s).score == pytest.approx(100.0)


def test_sentence_short_identity_smoothed():
    # p3, p4 have zero denominators; add-one lifts them to 1
    s = make_sentence("a b")
    score = sentence_bleu(s, s)
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.score == pytest.approx(100.0)


def test_sentence_unigram_not_smoothed():
    score = sentence_bleu(make_sentence("x y"), make_sentence("a b"))
    assert score.precisions[0] == 0.0
    assert score.score == 0.0


def test_sentence_empty_reference():
    with pytest.raises(DataError):
        sentence_bleu(make_sentence("a"), make_sentence(""))


# -- the block counts against the Counter oracle --------------------------------

# cased pairs whose lowercase forms meet: İ -> i + U+0307, ẞ -> ß, Σ -> σ
WORDS = ("a", "b", "A", "İ", "i\u0307", "ẞ", "ß", "Σ", "σ", "ς")


@st.composite
def corpus_pairs(draw):
    """Two aligned corpora of 1-6 sentences of 0-9 tokens over 2-4 words.

    So few words make repeated n-grams and ties between the two sides'
    counts common; empty and sub-4-token sentences leave orders empty.
    """
    vocab = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    sentences = st.lists(
        st.lists(st.sampled_from(vocab), max_size=9).map(Sentence.from_tokens),
        min_size=n, max_size=n,
    )
    return tuple(draw(sentences)), tuple(draw(sentences))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=corpus_pairs(), lowercase=st.booleans())
def test_block_counts_match_counter_oracle(case, lowercase):
    hyp, ref = case
    want = outcome(bleu_oracle.corpus_bleu, hyp, ref, lowercase)
    want_sentences = [outcome(bleu_oracle.sentence_bleu, h, r) for h, r in zip(hyp, ref)]
    # one-token blocks, 7-token blocks that some sentence pairs overflow, one block
    for block in (1, 7, 1 << 20):
        with mock.patch.object(quality, "BLOCK_TOKENS", block):
            assert outcome(corpus_bleu, hyp, ref, lowercase) == want
            assert [outcome(sentence_bleu, h, r) for h, r in zip(hyp, ref)] == want_sentences


def test_corpus_bleu_memory_is_bounded_by_the_block():
    rng = SplitMix64(3)
    hyp, ref = (
        tuple(
            Sentence.from_tokens("w%d" % rng.randrange(500) for _ in range(12))
            for _ in range(20_000)
        )
        for _ in "hr"
    )
    tracemalloc.start()
    try:
        corpus_bleu(hyp, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # counting the 480k tokens in one block would take about 70 MB
    assert peak < 8 * 2**20
