"""Reference IBM Model 1 written with nested dicts and plain loops.

This is the aligner `mtlens.align` shipped before it moved to interned
ids and `np.bincount`. Every sum here runs in the order the array
version must reproduce: per hypothesis token over the other side's
positions (NULL first), and per word pair and other-side word over
(sentence, hypothesis position, other position). Used to check that
the production table, log-likelihood history and Viterbi alignments
are bit-identical to it.
"""

import math
from dataclasses import dataclass, field

from mtlens.align import NULL, PROB_FLOOR, Alignment
from mtlens.errors import DataError


@dataclass
class OracleTable:
    """t[other_word][hyp_word] -> probability; other_word may be NULL."""

    t: dict = field(default_factory=dict)
    log_likelihood_history: tuple = ()

    def prob(self, hyp_word: str, other_word) -> float:
        return self.t.get(other_word, {}).get(hyp_word, 0.0)


def train_model1(hyp, other, iterations: int = 10) -> OracleTable:
    if len(hyp) != len(other):
        raise DataError(
            f"bitext length mismatch: {len(hyp)} vs {len(other)} sentences"
        )
    pairs = [
        (h.tokens, (NULL,) + o.tokens)
        for h, o in zip(hyp, other)
        if h.tokens and o.tokens
    ]
    if not pairs:
        raise DataError("empty bitext: no sentence pair has tokens on both sides")
    if iterations < 1:
        raise DataError("need at least one EM iteration")

    # uniform init over co-occurring pairs
    cooc: dict = {}
    for h_toks, o_toks in pairs:
        for o in o_toks:
            seen = cooc.setdefault(o, {})
            for h in h_toks:
                seen[h] = True
    t = {o: {h: 1.0 / len(hs) for h in hs} for o, hs in cooc.items()}

    history = []
    for _ in range(iterations):
        counts: dict = {o: dict.fromkeys(hs, 0.0) for o, hs in t.items()}
        totals: dict = dict.fromkeys(t, 0.0)
        log_like = 0.0
        for h_toks, o_toks in pairs:
            for h in h_toks:
                denom = 0.0
                for o in o_toks:
                    denom += t[o].get(h, 0.0)
                log_like += math.log(max(denom / len(o_toks), PROB_FLOOR))
                denom = max(denom, PROB_FLOOR)
                for o in o_toks:
                    p = t[o].get(h, 0.0)
                    if p == 0.0:
                        continue
                    c = p / denom
                    counts[o][h] += c
                    totals[o] += c
        history.append(log_like)
        for o, row in counts.items():
            norm = max(totals[o], PROB_FLOOR)
            t[o] = {h: c / norm for h, c in row.items()}

    return OracleTable(t=t, log_likelihood_history=tuple(history))


def viterbi_align(table, hyp, other) -> Alignment:
    """Ties between real positions break toward the smallest index; NULL
    wins only when strictly more likely; zero-probability tokens stay
    unlinked."""
    links = set()
    for i, h in enumerate(hyp.tokens):
        best_j = -1
        best_p = 0.0
        for j, o in enumerate(other.tokens):
            p = table.prob(h, o)
            if p > best_p:
                best_p = p
                best_j = j
        if best_j >= 0 and table.prob(h, NULL) <= best_p:
            links.add((i, best_j))
    return frozenset(links)
