"""Word-order monotonicity metrics: fuzzy reordering score and translation edit rate.

FRS = 1 - (C-1)/(M-1), where C counts chunks of contiguously aligned
hypothesis tokens and M is the other-side length; 1 means the
hypothesis reads in the other side's order, 0 means every adjacent
pair breaks. TER = E / L_ref with E a word-level edit count; the
optional shift mode adds Snover-style greedy block shifts at cost 1
each before counting remaining insert/delete/substitute edits, and
scores each distinct shifted hypothesis once per greedy step.

The edit distance, with or without shifts, is computed bit-parallel
over Python ints (see `levenshtein`); the full-table DP it must equal
lives in the tests.

`corpus_frs` is the one place FRS trains IBM-1: it aligns a whole
bitext and scores each sentence, and a bitext with no trainable pair
leaves every sentence skipped. `corpus_wordorder` gives one series per
metric name of a run (`frs-vs-ref`, `ter-vs-ref`, `frs-vs-src`,
`ter-vs-src`); TER is an edit distance and trains nothing.
"""

from dataclasses import dataclass

from .align import Alignment, train_model1, trainable_pairs
from .align import viterbi_align  # noqa: F401 (benchmarks/spans.py wraps this name)
from .corpus import AnalysisRun, Corpus, Sentence
from .errors import DataError
from .series import MetricSeries, SeriesPoint, mean_or_none

WORDORDER_METRICS = ("frs-vs-ref", "ter-vs-ref", "frs-vs-src", "ter-vs-src")


@dataclass(frozen=True)
class ReorderingResult:
    frs: float
    chunks: int
    ref_len: int


@dataclass(frozen=True)
class TerResult:
    edits: int
    ref_len: int
    ter: float


def _projection(alignment: Alignment, hyp: Sentence) -> list[int]:
    """Other-side index per aligned hypothesis token, in hypothesis order.

    Multi-linked tokens project to their smallest linked index;
    unaligned tokens are dropped.
    """
    by_i: dict[int, int] = {}
    for i, j in alignment:
        if i not in by_i or j < by_i[i]:
            by_i[i] = j
    return [by_i[i] for i in range(len(hyp.tokens)) if i in by_i]


def frs(alignment: Alignment, hyp: Sentence, other: Sentence) -> ReorderingResult:
    m = len(other.tokens)
    if m == 0:
        raise DataError("FRS undefined against an empty sentence")
    for i, j in alignment:
        if not (0 <= i < len(hyp.tokens) and 0 <= j < m):
            raise DataError(f"alignment link ({i},{j}) out of range")
    projected = _projection(alignment, hyp)
    chunks = 1 + sum(
        1 for a, b in zip(projected, projected[1:]) if b != a + 1
    )
    if m <= 1:
        score = 1.0
    else:
        score = 1.0 - (chunks - 1) / (m - 1)
    return ReorderingResult(frs=min(1.0, max(0.0, score)), chunks=chunks, ref_len=m)


def levenshtein(a, b) -> int:
    """Word-level edit distance with unit insert/delete/substitute costs.

    Bit-parallel (Myers 1999, in Hyyro's 2001 form for the global
    distance): bit i of a Python int stands for row i of one column of
    the DP table over the longer sequence, and each token of the
    shorter one advances the whole column with a few integer
    operations. The full-table DP oracle is in `tests/test_wordorder.py`.
    """
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict = {}  # token -> bit mask of its positions in a
    for i, tok in enumerate(a):
        match[tok] = match.get(tok, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pos, neg = mask, 0  # vertical +1 / -1 deltas down the column
    dist = len(a)
    for tok in b:
        eq = match.get(tok, 0)
        xv = eq | neg
        xh = (((eq & pos) + pos) ^ pos) | eq
        hpos = neg | (~(xh | pos) & mask)
        hneg = pos & xh
        if hpos & last:
            dist += 1
        elif hneg & last:
            dist -= 1
        # row 0 of the table is 0, 1, 2, ...: its horizontal delta is +1
        hpos = ((hpos << 1) | 1) & mask
        hneg = (hneg << 1) & mask
        pos = hneg | (~(xv | hpos) & mask)
        neg = hpos & xv
    return dist


def _best_shift(hyp_tokens: list, ref_tokens: list, base: int):
    """Single block shift that most reduces edit distance, or None.

    Candidate moves take a contiguous hypothesis span that matches a
    reference span exactly and reinsert it at the matching reference
    position. Each distinct candidate list is scored once: a repeat, or
    the unshifted hypothesis, has a known distance. Ties resolve to the
    first candidate in (start, length, ref position) order, keeping the
    greedy loop deterministic.
    """
    best = None  # (new_dist, new_tokens)
    seen = {tuple(hyp_tokens)}
    n = len(hyp_tokens)
    for start in range(n):
        for length in range(1, n - start + 1):
            span = hyp_tokens[start : start + length]
            remaining = hyp_tokens[:start] + hyp_tokens[start + length :]
            for rpos in range(len(ref_tokens) - length + 1):
                if ref_tokens[rpos : rpos + length] != span:
                    continue
                dest = min(rpos, len(remaining))
                candidate = remaining[:dest] + span + remaining[dest:]
                if (key := tuple(candidate)) in seen:
                    continue
                seen.add(key)
                dist = levenshtein(candidate, ref_tokens)
                if dist < base and (best is None or dist < best[0]):
                    best = (dist, candidate)
    return best


def ter(hyp: Sentence, ref: Sentence, shifts: bool = False) -> TerResult:
    if len(ref.tokens) == 0:
        raise DataError("TER undefined for an empty reference")
    hyp_tokens = list(hyp.tokens)
    ref_tokens = list(ref.tokens)
    num_shifts = 0
    dist = levenshtein(hyp_tokens, ref_tokens)
    if shifts:
        while dist > 0:
            found = _best_shift(hyp_tokens, ref_tokens, dist)
            if found is None:
                break
            dist, hyp_tokens = found
            num_shifts += 1
    edits = num_shifts + dist
    return TerResult(edits=edits, ref_len=len(ref_tokens), ter=edits / len(ref_tokens))


def score_defined(rows, score) -> tuple[list, int]:
    """score(*row) for each row whose last item, the other side, has tokens.

    FRS and TER are undefined against an empty sentence, so rows with
    an empty other side are skipped. Returns the scores in row order
    and the number of rows skipped.
    """
    scores = []
    skipped = 0
    for row in rows:
        if len(row[-1].tokens) == 0:
            skipped += 1
        else:
            scores.append(score(*row))
    return scores, skipped


def corpus_frs(hyp: Corpus, other: Corpus, iterations: int = 10) -> tuple[list, int]:
    """FRS of each sentence over IBM-1 Viterbi links trained on this bitext.

    Returns the ReorderingResult of every sentence whose other side has
    tokens, and the number skipped. A bitext with no trainable pair
    skips every sentence; a length mismatch or iterations < 1 raises
    first.
    """
    if not trainable_pairs(hyp, other, iterations):
        return [], len(hyp)
    table = train_model1(hyp, other, iterations=iterations)
    return score_defined(zip(table.alignments, hyp, other), frs)


def corpus_wordorder(run: AnalysisRun, metric: str, iterations: int = 10) -> MetricSeries:
    """Per-checkpoint mean of one of WORDORDER_METRICS.

    The suffix picks the other side (reference or source); only FRS
    reads iterations. Sentences where the metric is undefined are
    skipped and counted in the series point.
    """
    if metric not in WORDORDER_METRICS:
        raise DataError(f"unknown word-order metric {metric!r}")
    kind, _, side = metric.split("-")
    other = run.reference if side == "ref" else run.source
    points = []
    for ckpt in run.checkpoints:
        hyp = ckpt.hypotheses
        if kind == "frs":
            results, skipped = corpus_frs(hyp, other, iterations)
            values = [r.frs for r in results]
        else:
            values, skipped = score_defined(zip(hyp, other), lambda h, o: ter(h, o).ter)
        points.append(SeriesPoint(ckpt.checkpoint_id, mean_or_none(values), skipped))
    return MetricSeries(metric_name=metric, points=tuple(points))
