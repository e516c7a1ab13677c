"""Corpus- and sentence-level BLEU-4 (single reference).

Corpus mode pools clipped n-gram counts over the whole corpus and is
unsmoothed: any zero pooled precision gives score 0. Sentence mode
adds one to numerator and denominator for n >= 2 so short identical
pairs still score, leaving unigram precision untouched.

corpus_bleus() is the one place corpora are checked and counted: it
scores many (hyp, ref) pairs at once and returns, per pair, its
BleuScore or the DataError that refuses it; corpus_bleu() is its
one-pair case and raises that error. Each distinct corpus (by value)
is counted once, and each corpus object is hashed once, then found by
its id. Clipped matches, sum over n-grams of min(c_h, c_r), are
integers and symmetric in the two sides, so a pair and its reverse
share one count. The counts walk the sentences in blocks of at most
BLOCK_TOKENS tokens over all the corpora, packed by `corpus.ranges`,
so memory does not grow with corpus length. The totals, sum over
sentences of max(0, len - n + 1), come from the hypothesis lengths
alone, once per distinct corpus.
"""

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .corpus import Corpus, Sentence, ranges
from .errors import DataError

MAX_ORDER = 4
# tokens per sentence block, over all the corpora counted together; a
# longer sentence is a block of its own
BLOCK_TOKENS = 1 << 14


@dataclass(frozen=True)
class BleuScore:
    score: float  # 0..100
    precisions: tuple[float, ...]  # fractions, n = 1..4
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _intern(tokens, lowercase: bool) -> np.ndarray:
    """Token ids 0..V-1 in order of first use."""
    if lowercase:
        tokens = [t.lower() for t in tokens]
    ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    return np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _block_counts(corpora, start, stop, lowercase):
    """For each order, each corpus's sorted (sentence, n-gram) keys and their counts.

    Keys are sentence * G + gram, with the sentence counted from start
    and gram the id of an n-gram shared by all the corpora, so the
    keys of two corpora compare across them. A corpus that ends before
    stop reads as empty sentences past its end.
    """
    width = stop - start
    block = [c[i].tokens if i < len(c) else () for c in corpora for i in range(start, stop)]
    tok = _intern([t for tokens in block for t in tokens], lowercase)
    row = np.repeat(np.arange(len(block)), [len(tokens) for tokens in block])
    gram = tok
    grams = vocab = int(tok.max(initial=-1)) + 1
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            # the n-gram at i is the (n-1)-gram at i followed by token i + n - 1
            uniq, gram = np.unique(gram[:-1] * vocab + tok[n - 1 :], return_inverse=True)
            grams = len(uniq)
        first = row[: len(gram)]
        inside = first == row[n - 1 :]  # drop windows that cross a sentence end
        keys, counts = np.unique(first[inside] * grams + gram[inside], return_counts=True)
        span = width * grams
        bounds = np.searchsorted(keys, np.arange(len(corpora) + 1) * span)
        yield [
            (keys[lo:hi] - c * span, counts[lo:hi])
            for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]


def _clipped_matches(corpora, pairs, lowercase: bool = False) -> list[list[int]]:
    """Sum of min(c_h, c_r) over n-grams, per (hyp, ref) pair and order n = 1..4.

    Each pair holds the indices of two corpora of one length and
    compares their sentences line by line; other pairs may compare
    corpora of another length. Each corpus is counted once, however
    many pairs it is in.
    """
    matched = np.zeros((len(pairs), MAX_ORDER), dtype=np.int64)
    if not pairs:
        return matched.tolist()
    tokens = (sum(map(len, sents)) for sents in zip_longest(*corpora, fillvalue=()))
    for start, stop in ranges(tokens, BLOCK_TOKENS):
        for n, counted in enumerate(_block_counts(corpora, start, stop, lowercase)):
            for p, (h, r) in enumerate(pairs):
                (h_keys, h_counts), (r_keys, r_counts) = counted[h], counted[r]
                _, ih, ir = np.intersect1d(
                    h_keys, r_keys, assume_unique=True, return_indices=True
                )
                matched[p, n] += np.minimum(h_counts[ih], r_counts[ir]).sum()
    return matched.tolist()


def _ngram_totals(corpus: Corpus) -> list[int]:
    """Sum over sentences of max(0, len - n + 1), for n = 1..4."""
    return [
        sum(max(0, len(s.tokens) - n + 1) for s in corpus)
        for n in range(1, MAX_ORDER + 1)
    ]


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def _corpus_score(matched, total, bp: float) -> float:
    # orders with no n-grams anywhere (corpus shorter than n) do not
    # enter the geometric mean; an order that exists but has zero
    # matches keeps the unsmoothed score at 0
    orders = [n for n in range(MAX_ORDER) if total[n] > 0]
    if not orders:
        return 0.0
    if any(matched[n] == 0 for n in orders):
        return 0.0
    log_sum = math.fsum(math.log(matched[n] / total[n]) for n in orders)
    return 100.0 * bp * math.exp(log_sum / len(orders))


def _check_corpora(hyp: Corpus, ref: Corpus) -> DataError | None:
    """The error that refuses a pair: unequal lengths, then a reference without tokens."""
    if len(hyp) != len(ref):
        return DataError(
            f"corpus length mismatch: {len(hyp)} hypotheses vs {len(ref)} references"
        )
    if not any(s.tokens for s in ref):
        return DataError("reference corpus has no tokens")
    return None


def _bleu_from_matches(matched, total, ref_len: int) -> BleuScore:
    """Corpus BLEU from the clipped matches and hypothesis n-gram totals per order."""
    hyp_len = total[0]  # every token starts one unigram
    precisions = tuple(
        matched[n] / total[n] if total[n] > 0 else 0.0 for n in range(MAX_ORDER)
    )
    bp = _brevity_penalty(hyp_len, ref_len)
    return BleuScore(
        score=_corpus_score(matched, total, bp),
        precisions=precisions,
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def corpus_bleus(pairs, lowercase: bool = False) -> list[BleuScore | DataError]:
    """Corpus BLEU of each (hyp, ref) pair, or the DataError that refuses it.

    Each pair is checked once. One count covers the pairs that pass:
    each distinct corpus, by value, is counted once, and a pair and its
    reverse share their clipped matches. A corpus object is looked up
    by identity first, so its sentences are hashed once per call.
    """
    index = {}  # the distinct corpora of the pairs that pass, in order of first use
    seen = {}  # id -> (corpus, its index); holding the corpus keeps its id from reuse

    def lookup(corpus):
        if id(corpus) not in seen:
            seen[id(corpus)] = corpus, index.setdefault(corpus, len(index))
        return seen[id(corpus)][1]

    at = []  # per pair: the indices of its hyp and ref, or its DataError
    for hyp, ref in pairs:
        error = _check_corpora(hyp, ref)
        at.append(error or (lookup(hyp), lookup(ref)))
    corpora = list(index)
    counted = list(dict.fromkeys(tuple(sorted(hr)) for hr in at if isinstance(hr, tuple)))
    matched = dict(zip(counted, _clipped_matches(corpora, counted, lowercase)))
    totals = [_ngram_totals(corpus) for corpus in corpora]
    return [
        hr if isinstance(hr, DataError)
        else _bleu_from_matches(matched[tuple(sorted(hr))], totals[hr[0]], totals[hr[1]][0])
        for hr in at
    ]


def corpus_bleu(hyp: Corpus, ref: Corpus, lowercase: bool = False) -> BleuScore:
    (score,) = corpus_bleus([(hyp, ref)], lowercase)
    if isinstance(score, DataError):
        raise score
    return score


def sentence_bleu(hyp: Sentence, ref: Sentence) -> BleuScore:
    """Lin-Och add-one smoothing for n >= 2; unigrams unsmoothed."""
    if len(ref) == 0:
        raise DataError("empty reference sentence")
    (matched,) = _clipped_matches(((hyp,), (ref,)), [(0, 1)])
    total = _ngram_totals((hyp,))
    precisions = []
    for n in range(MAX_ORDER):
        if n == 0:
            precisions.append(matched[0] / total[0] if total[0] > 0 else 0.0)
        else:
            precisions.append((matched[n] + 1) / (total[n] + 1))
    bp = _brevity_penalty(len(hyp), len(ref))
    if precisions[0] <= 0.0:
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(
            math.fsum(math.log(p) for p in precisions) / MAX_ORDER
        )
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_len=len(hyp),
        ref_len=len(ref),
    )
