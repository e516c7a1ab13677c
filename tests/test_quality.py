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
from mtlens.quality import corpus_bleu
from mtlens.rng import SplitMix64

from conftest import make_corpus, outcome


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
    # one-token blocks, 7-token blocks that some sentence pairs overflow, one block
    for block in (1, 7, 1 << 20):
        with mock.patch.object(quality, "BLOCK_TOKENS", block):
            assert outcome(corpus_bleu, hyp, ref, lowercase) == want


@st.composite
def pair_lists(draw):
    """1-6 (hyp, ref) pairs drawn from a pool of 1-4 corpora and their copies.

    Pool corpora hold 1-5 sentences of 0-6 tokens, so some are a
    sentence longer or shorter than others or have no tokens at all;
    equal-valued copies of some are added. Pairs may repeat, pair a
    corpus with itself or its copy, and come with their reverses.
    """
    vocab = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=4, unique=True))
    n = draw(st.integers(2, 4))
    sentence = st.lists(st.sampled_from(vocab), max_size=6).map(Sentence.from_tokens)
    pool = []
    for size in draw(st.lists(st.sampled_from((n, n, n, n - 1, n + 1)), min_size=1, max_size=4)):
        if draw(st.integers(0, 4)) == 0:
            pool.append((Sentence.from_tokens(()),) * size)
        else:
            pool.append(tuple(draw(st.lists(sentence, min_size=size, max_size=size))))
    pool += [tuple(Sentence.from_line(s.raw) for s in c) for c in pool if draw(st.booleans())]
    corpus = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(corpus, corpus), min_size=1, max_size=6))
    return pairs + [(r, h) for h, r in pairs if draw(st.booleans())]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pairs=pair_lists(), lowercase=st.booleans())
def test_corpus_bleus_matches_oracle_pair_by_pair(pairs, lowercase):
    want = [outcome(bleu_oracle.corpus_bleu, h, r, lowercase) for h, r in pairs]
    # one count, over each distinct corpus and each unordered pair of the pairs that pass
    scored = [pair for pair, w in zip(pairs, want) if not isinstance(w, str)]
    one_count = [(len({c for pair in scored for c in pair}), len(set(map(frozenset, scored))))]
    count = quality._clipped_matches
    # one-token blocks, and the default block size
    for block in (1, quality.BLOCK_TOKENS):
        calls = []

        def counting(corpora, counted, lowercase):
            calls.append((len(corpora), len(counted)))
            matches, totals = count(corpora, counted, lowercase)
            # each counted corpus's totals, from the block count
            assert totals == [bleu_oracle._ngram_totals(c) for c in corpora]
            return matches, totals

        with mock.patch.multiple(quality, BLOCK_TOKENS=block, _clipped_matches=counting):
            got = quality.corpus_bleus(pairs, lowercase)
        # a refused pair returns its DataError, with the oracle's message
        assert [f"DataError: {g}" if isinstance(g, DataError) else g for g in got] == want
        assert calls == one_count


def test_corpus_bleus_hashes_each_corpus_object_once(monkeypatch):
    hashed = []
    sentence_hash = Sentence.__hash__

    def counting_hash(self):
        hashed.append(self)
        return sentence_hash(self)

    hyp = make_corpus(["a b c d", "b c d", "a a b"])
    ref = make_corpus(["a b c e", "b c", "a b"])
    copy = tuple(Sentence.from_line(s.raw) for s in ref)  # equal to ref, another object
    pairs = [(hyp, ref), (ref, hyp), (hyp, copy), (copy, ref), (ref, make_corpus(["x"]))] * 8
    want = [outcome(bleu_oracle.corpus_bleu, h, r, False) for h, r in pairs]
    monkeypatch.setattr(Sentence, "__hash__", counting_hash)
    got = quality.corpus_bleus(pairs)
    # hyp, ref and copy once each; the refused pairs are never looked up
    assert len(hashed) == len(hyp) + len(ref) + len(copy)
    assert [f"DataError: {g}" if isinstance(g, DataError) else g for g in got] == want


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
