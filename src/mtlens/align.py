"""IBM Model 1 word alignment.

Self-contained EM aligner used to produce the alignments the
reordering metrics consume. Direction convention throughout the
toolkit: the first corpus is the hypothesis side (its token indexes
own the links); the second corpus is the reference-or-source side and
receives the prepended NULL token. The translation table stores
t(hyp_word | other_word), normalized over the hypothesis vocabulary
for every other-side word.

Alignments serialize to Pharaoh text: line k holds space-separated
"i-j" pairs for sentence k, an empty line meaning no links.
"""

import math
import re
from dataclasses import dataclass, field

from .corpus import Corpus, Sentence, read_lines
from .errors import DataError

# conditioning-side NULL; None cannot collide with a real token string
NULL = None

PROB_FLOOR = 1e-12

_PHARAOH_TOKEN = re.compile(r"^(\d+)-(\d+)$")


@dataclass(frozen=True)
class Alignment:
    links: frozenset  # of (hyp_index, other_index)

    def sorted_links(self) -> list:
        return sorted(self.links)

    def __len__(self) -> int:
        return len(self.links)


@dataclass
class TranslationTable:
    """t[other_word][hyp_word] -> probability; other_word may be NULL."""

    t: dict = field(default_factory=dict)
    log_likelihood_history: tuple = ()

    def prob(self, hyp_word: str, other_word) -> float:
        return self.t.get(other_word, {}).get(hyp_word, 0.0)


def train_model1(hyp: Corpus, other: Corpus, iterations: int = 10) -> TranslationTable:
    """Standard Model 1 EM over the (hyp, other) bitext.

    Initialization is uniform over observed co-occurring pairs; a NULL
    token is prepended to every other-side sentence. The per-iteration
    data log-likelihood (under the parameters entering the iteration)
    is recorded on the returned table.
    """
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

    return TranslationTable(t=t, log_likelihood_history=tuple(history))


def viterbi_align(table: TranslationTable, hyp: Sentence, other: Sentence) -> Alignment:
    """Link each hypothesis token to its most likely other-side token.

    Ties between real positions break toward the smallest index; NULL
    wins only when strictly more likely than every real position.
    Tokens whose best candidate has zero probability stay unlinked.
    """
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
    return Alignment(links=frozenset(links))


def align_corpora(
    hyp: Corpus, other: Corpus, iterations: int = 10
) -> list[Alignment]:
    """Train on the pair and Viterbi-align every sentence."""
    table = train_model1(hyp, other, iterations=iterations)
    return [viterbi_align(table, h, o) for h, o in zip(hyp, other)]


def format_pharaoh(alignments) -> str:
    return "".join(
        " ".join(f"{i}-{j}" for i, j in aln.sorted_links()) + "\n" for aln in alignments
    )


def write_pharaoh(alignments, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_pharaoh(alignments))


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
        alignments.append(Alignment(links=frozenset(links)))
    return alignments
