"""Reference BLEU counted with one Counter per sentence and order.

This is the counting `mtlens.quality` shipped before it moved to array
n-gram ids in sentence blocks: for every sentence pair and every order
it builds both sides' n-gram Counters and adds min(c_h, c_r) over the
hypothesis n-grams. The float steps (brevity penalty, geometric mean)
are the production ones, so the two must give equal BleuScores,
compared with ==.

_ngram_totals is how `mtlens.quality` took each corpus's n-gram totals
before they came from its block count: one more walk over the corpus.
"""

from collections import Counter

from mtlens.corpus import Corpus
from mtlens.errors import DataError
from mtlens.quality import MAX_ORDER, BleuScore, _brevity_penalty, _corpus_score


def _ngram_totals(corpus: Corpus) -> list[int]:
    """Sum over sentences of max(0, len - n + 1), for n = 1..4."""
    return [
        sum(max(0, len(s.tokens) - n + 1) for s in corpus)
        for n in range(1, MAX_ORDER + 1)
    ]


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pair_stats(hyp_tokens, ref_tokens, matched, total):
    for n in range(1, MAX_ORDER + 1):
        hyp_counts = _ngrams(hyp_tokens, n)
        if not hyp_counts:
            continue
        ref_counts = _ngrams(ref_tokens, n)
        total[n - 1] += sum(hyp_counts.values())
        matched[n - 1] += sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
        )


def corpus_bleu(hyp, ref, lowercase: bool = False) -> BleuScore:
    if len(hyp) != len(ref):
        raise DataError(
            f"corpus length mismatch: {len(hyp)} hypotheses vs {len(ref)} references"
        )
    if sum(len(s) for s in ref) == 0:
        raise DataError("reference corpus has no tokens")
    matched = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for h, r in zip(hyp, ref):
        h_toks = [t.lower() for t in h.tokens] if lowercase else list(h.tokens)
        r_toks = [t.lower() for t in r.tokens] if lowercase else list(r.tokens)
        hyp_len += len(h_toks)
        ref_len += len(r_toks)
        _pair_stats(h_toks, r_toks, matched, total)
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
