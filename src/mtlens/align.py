"""IBM Model 1 word alignment.

Self-contained EM aligner used to produce the alignments the
reordering metrics consume. Direction convention throughout the
toolkit: the first corpus is the hypothesis side (its token indexes
own the links); the second corpus is the reference-or-source side and
receives the prepended NULL token. The translation table stores
t(hyp_word | other_word), normalized over the hypothesis vocabulary
for every other-side word.

Layout (the flat arrays of fast_align, Dyer et al. 2013): each side's
words are interned once to integer ids, in order of first use, and
NULL is other-side id 0. A word pair (h, o) is the key o*H + h, with
H the size of the hypothesis vocabulary; the table keeps the sorted
keys of every co-occurring pair and one probability per key, so each
other-side word's pairs form one run. Training has one link per
(hypothesis token, other token) of every trainable sentence pair, in
(sentence, hypothesis position, other position) order. A link's row
is its (sentence, hypothesis position) and its pair id is its key's
index among the sorted keys. The links are walked in chunks of whole
sentence pairs, packed by `corpus.ranges`: at most LINK_CHUNK links
each unless one pair alone has more.

Memory: interning fills one int64 key per link, argsorts the keys and
scatters the running count of distinct sorted keys back through the
permutation, which is `np.unique`'s own algorithm at a peak of 24
bytes per link. Across EM, three 8-byte arrays live per link (pair id,
other-side id and expected count) and two per pair (key and t). An
E-step chunk gathers its links' t into the count array, takes its
rows' denominators with `np.bincount` over chunk-local row ids and
divides in place, so no other array spans the bitext. The M-step drops
the old t, which the E-step read last, and makes two `np.bincount`
calls over the whole count array: the expected counts over the pair
ids, which become the new t, and the per-word totals over the
other-side ids. It then divides t in place by each word's total, one
`corpus.ranges` range of whole word runs (at most LINK_CHUNK pairs
unless one word alone has more) at a time, so no normaliser spans the
table. On 2,000 pairs of 40 tokens over 400-word vocabularies (3.28M
links), training peaks at 26 bytes per link under `tracemalloc`.
Where nearly every word pair is distinct (400 pairs of 20-40 tokens
over 5,000-word vocabularies) the peak is 43 bytes per link.

The result is bit-identical to the plain nested-dict EM kept in
`tests/model1_oracle.py` and to the whole-bitext arrays kept in
`tests/model1_unchunked_oracle.py`: `bincount` adds its weights one by
one in index order, which is the order the dict loops add them in;
each row's log term is taken with `math.log` (NumPy's `log` may differ
in the last bit); and the log terms are added with a sequential `+=`
in row order, chunk after chunk, since `sum` compensates its rounding
on Python 3.12 and later.

Viterbi is one routine, `_viterbi`, over one sentence pair's block of
probabilities, a row per hypothesis token with columns [NULL, o_1..o_m]:
each row links to the first real position with the row's largest
probability (`argmax`, the tie rule of a strict `>` scan), unless that
probability is 0 or NULL's is strictly larger. After the last
iteration t of each link is its final probability and a trained pair's
links reshape into its block, so `train_model1` returns the alignment
of every training sentence without lookups; `viterbi_align` reads a
block of table probabilities, for sentence pairs outside the bitext.

Alignments serialize to Pharaoh text: line k holds space-separated
"i-j" pairs for sentence k, an empty line meaning no links.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence, ranges, read_lines
from .errors import DataError

# conditioning-side NULL; None cannot collide with a real token string
NULL = None

PROB_FLOOR = 1e-12
# links per EM chunk; a sentence pair with more links is a chunk of its own
LINK_CHUNK = 1 << 15

_PHARAOH_TOKEN = re.compile(r"^(\d+)-(\d+)$")


# an alignment is its set of (hyp_index, other_index) links
Alignment = frozenset[tuple[int, int]]


@dataclass(frozen=True, eq=False)
class TranslationTable:
    """t(hyp_word | other_word) over interned word ids.

    hyp_ids and other_ids map each side's words to ids (other id 0 is
    NULL); pair_keys holds other_id * len(hyp_ids) + hyp_id for every
    co-occurring pair, sorted, and probs[k] is t for pair_keys[k].
    alignments holds the Viterbi alignment of every sentence pair of
    the training bitext, empty for a pair with no tokens on one side.
    """

    hyp_ids: dict
    other_ids: dict
    pair_keys: np.ndarray
    probs: np.ndarray
    log_likelihood_history: tuple = ()
    alignments: tuple = ()

    def prob_block(self, hyp_words, other_words) -> np.ndarray:
        """t for every (hyp word, other word) pair, one row per hyp word.

        Words never seen together in training get 0.0.
        """
        h = np.array([self.hyp_ids.get(w, -1) for w in hyp_words], dtype=np.int64)
        o = np.array([self.other_ids.get(w, -1) for w in other_words], dtype=np.int64)
        keys = o[None, :] * len(self.hyp_ids) + h[:, None]
        idx = np.minimum(np.searchsorted(self.pair_keys, keys), len(self.pair_keys) - 1)
        # an unknown word's id -1 could form another pair's key
        found = (self.pair_keys[idx] == keys) & (h[:, None] >= 0) & (o[None, :] >= 0)
        return np.where(found, self.probs[idx], 0.0)

    def prob(self, hyp_word: str, other_word) -> float:
        return float(self.prob_block((hyp_word,), (other_word,))[0, 0])


def trainable_pairs(hyp: Corpus, other: Corpus, iterations: int) -> list[int]:
    """Indexes of the sentence pairs EM trains on: those with tokens on both sides.

    Raises on a length mismatch or iterations < 1 whatever the pairs hold.
    """
    if len(hyp) != len(other):
        raise DataError(
            f"bitext length mismatch: {len(hyp)} vs {len(other)} sentences"
        )
    if iterations < 1:
        raise DataError("need at least one EM iteration")
    return [k for k, (h, o) in enumerate(zip(hyp, other)) if h.tokens and o.tokens]


def _viterbi(block: np.ndarray) -> Alignment:
    """The links (i, j) of one sentence pair's rows of [NULL, o_1..o_m] probabilities.

    Row i links to the first j with the row's largest real probability,
    unless that is 0 or NULL's is strictly larger.
    """
    j = block[:, 1:].argmax(axis=1)
    best = block[np.arange(len(block)), j + 1]
    linked = (best > 0.0) & (block[:, 0] <= best)
    return frozenset(zip(np.flatnonzero(linked).tolist(), j[linked].tolist()))


def _link_pairs(sent_h, sent_o, link_at, n_hyp):
    """The sorted distinct keys of the links, and each link's index among them.

    The result of np.unique(keys, return_inverse=True), by its own
    algorithm, with each temporary freed as soon as it is dead.
    """
    keys = np.empty(link_at[-1], dtype=np.int64)
    for h, o, at in zip(sent_h, sent_o, link_at):
        np.add.outer(h, o * n_hyp, out=keys[at:at + h.size * o.size].reshape(h.size, o.size))
    order = keys.argsort()
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pair_keys = keys[first]
    del keys
    ids = np.cumsum(first, dtype=np.int64)
    del first
    ids -= 1
    pair = np.empty_like(ids)
    pair[order] = ids
    return pair_keys, pair


def train_model1(hyp: Corpus, other: Corpus, iterations: int = 10) -> TranslationTable:
    """Standard Model 1 EM over the (hyp, other) bitext, and its Viterbi alignments.

    Initialization is uniform over observed co-occurring pairs; a NULL
    token is prepended to every other-side sentence. The per-iteration
    data log-likelihood (under the parameters entering the iteration)
    is recorded on the returned table, and so is the Viterbi alignment
    of every sentence pair under the final parameters.
    """
    kept = trainable_pairs(hyp, other, iterations)
    if not kept:
        raise DataError("empty bitext: no sentence pair has tokens on both sides")

    hyp_ids: dict = {}
    other_ids: dict = {NULL: 0}
    sent_h, sent_o = [], []
    for k in kept:
        o = [other_ids.setdefault(w, len(other_ids)) for w in other[k].tokens]
        sent_h.append(np.array([hyp_ids.setdefault(w, len(hyp_ids)) for w in hyp[k].tokens]))
        sent_o.append(np.array([0] + o))
    hyp_len = np.array([h.size for h in sent_h])
    other_len = np.array([o.size for o in sent_o])
    pair_links = hyp_len * other_len
    link_at = np.concatenate(([0], np.cumsum(pair_links))).tolist()
    row_at = np.concatenate(([0], np.cumsum(hyp_len))).tolist()
    chunks = [
        (slice(link_at[start], link_at[stop]), slice(row_at[start], row_at[stop]))
        for start, stop in ranges(pair_links.tolist(), LINK_CHUNK)
    ]
    row_len = np.repeat(other_len, hyp_len)
    pair_keys, pair = _link_pairs(sent_h, sent_o, link_at, len(hyp_ids))
    del sent_h, sent_o
    # keys sort by other word first, so each word's pairs are one run
    word_pairs = np.bincount(pair_keys // len(hyp_ids))
    link_o = np.repeat(np.arange(len(word_pairs)), word_pairs)[pair]
    pair_at = np.concatenate(([0], np.cumsum(word_pairs))).tolist()
    word_runs = [
        (slice(pair_at[start], pair_at[stop]), slice(start, stop))
        for start, stop in ranges(word_pairs.tolist(), LINK_CHUNK)
    ]

    # uniform init over co-occurring pairs
    t = np.repeat(1.0 / word_pairs, word_pairs)
    c = np.empty(len(pair))  # each link's t, then, over its row's sum, its expected count
    history = []
    for _ in range(iterations):
        log_like = 0.0
        for links, rows in chunks:
            lens = row_len[rows]
            chunk = c[links]
            chunk[:] = t[pair[links]]
            denom = np.bincount(np.repeat(np.arange(len(lens)), lens), weights=chunk)
            for mean in np.maximum(denom / lens, PROB_FLOOR).tolist():
                log_like += math.log(mean)
            chunk /= np.repeat(np.maximum(denom, PROB_FLOOR), lens)
        history.append(log_like)
        del t  # the E-step was its last reader
        t = np.bincount(pair, weights=c, minlength=len(pair_keys))
        total = np.maximum(np.bincount(link_o, weights=c), PROB_FLOOR)
        for pairs, words in word_runs:
            t[pairs] /= np.repeat(total[words], word_pairs[words])
    del c, link_o

    alignments = [frozenset()] * len(hyp)
    for k, begin, end, rows in zip(kept, link_at, link_at[1:], hyp_len.tolist()):
        alignments[k] = _viterbi(t[pair[begin:end]].reshape(rows, -1))

    return TranslationTable(
        hyp_ids=hyp_ids,
        other_ids=other_ids,
        pair_keys=pair_keys,
        probs=t,
        log_likelihood_history=tuple(history),
        alignments=tuple(alignments),
    )


def viterbi_align(table: TranslationTable, hyp: Sentence, other: Sentence) -> Alignment:
    """Link each hypothesis token to its most likely other-side token.

    Ties between real positions break toward the smallest index; NULL
    wins only when strictly more likely than every real position.
    Tokens whose best candidate has zero probability stay unlinked.
    The training bitext's alignments are already on the table; this is
    for other sentence pairs.
    """
    if not hyp.tokens or not other.tokens:
        return frozenset()
    return _viterbi(table.prob_block(hyp.tokens, (NULL,) + other.tokens))


def format_pharaoh(alignments) -> str:
    return "".join(
        " ".join(f"{i}-{j}" for i, j in sorted(aln)) + "\n" for aln in alignments
    )


def read_pharaoh(path) -> list[Alignment]:
    alignments = []
    for lineno, line in read_lines(path):
        links = set()
        for token in line.split():
            m = _PHARAOH_TOKEN.match(token)
            if m is None:
                raise DataError(
                    f"{path}: line {lineno}: malformed alignment token {token!r}"
                )
            links.add((int(m.group(1)), int(m.group(2))))
        alignments.append(frozenset(links))
    return alignments
