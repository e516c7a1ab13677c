"""Reference IBM Model 1 over whole-bitext link arrays.

This is the `train_model1` `mtlens.align` shipped before EM walked the
links in chunks: every link array spans the whole bitext, the pair
keys are interned with one `np.unique(keys, return_inverse=True)` and
one EM iteration is three whole-bitext `np.bincount` calls. Its
Viterbi pass is a frozen copy of the segmented argmax. Used to check
that the chunked table, log-likelihood history and alignments are
bit-identical to it.
"""

import math

import numpy as np

from mtlens.align import NULL, PROB_FLOOR, TranslationTable, trainable_pairs
from mtlens.errors import DataError


def _viterbi_rows(p, row_len):
    start = np.cumsum(row_len) - row_len
    is_real = np.ones(len(p), dtype=bool)
    is_real[start] = False
    real_p = p[is_real]
    real_start = start - np.arange(len(start))
    best_p = np.maximum.reduceat(real_p, real_start)
    not_best = real_p != np.repeat(best_p, row_len - 1)
    first = np.arange(len(real_p))
    first[not_best] = len(real_p)
    first = np.minimum.reduceat(first, real_start)
    linked = (best_p > 0.0) & (p[start] <= best_p)
    return np.where(linked, first - real_start, -1).tolist()


def train_model1(hyp, other, iterations: int = 10) -> TranslationTable:
    kept = trainable_pairs(hyp, other, iterations)
    if not kept:
        raise DataError("empty bitext: no sentence pair has tokens on both sides")

    hyp_ids: dict = {}
    other_ids: dict = {NULL: 0}
    row_h, link_o, hyp_len, other_len = [], [], [], []
    for k in kept:
        h = [hyp_ids.setdefault(w, len(hyp_ids)) for w in hyp[k].tokens]
        o = np.array([0] + [other_ids.setdefault(w, len(other_ids)) for w in other[k].tokens])
        row_h += h
        link_o.append(np.tile(o, len(h)))
        hyp_len.append(len(h))
        other_len.append(len(o))
    link_o = np.concatenate(link_o)
    row_len = np.repeat(other_len, hyp_len)
    keys = link_o * len(hyp_ids) + np.repeat(row_h, row_len)
    pair_keys, pair = np.unique(keys, return_inverse=True)
    del keys, row_h
    row = np.repeat(np.arange(len(row_len)), row_len)
    pair_o = pair_keys // len(hyp_ids)

    t = 1.0 / np.bincount(pair_o)[pair_o]
    history = []
    for _ in range(iterations):
        c = t[pair]
        denom = np.bincount(row, weights=c)
        log_like = 0.0
        for mean in np.maximum(denom / row_len, PROB_FLOOR).tolist():
            log_like += math.log(mean)
        history.append(log_like)
        c /= np.repeat(np.maximum(denom, PROB_FLOOR), row_len)
        t = np.bincount(pair, weights=c, minlength=len(pair_keys))
        t /= np.maximum(np.bincount(link_o, weights=c), PROB_FLOOR)[pair_o]
    del c, link_o, row

    best = _viterbi_rows(t[pair], row_len)
    alignments = [frozenset()] * len(hyp)
    ends = np.cumsum(hyp_len).tolist()
    for k, begin, end in zip(kept, [0] + ends, ends):
        alignments[k] = frozenset((i, j) for i, j in enumerate(best[begin:end]) if j >= 0)

    return TranslationTable(
        hyp_ids=hyp_ids,
        other_ids=other_ids,
        pair_keys=pair_keys,
        probs=t,
        log_likelihood_history=tuple(history),
        alignments=tuple(alignments),
    )
