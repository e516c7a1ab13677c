"""Reference word-order series that fill FRS and TER in one pass.

This is the `mtlens.wordorder.corpus_wordorder` shipped before each
word-order metric became its own computation: one call trains IBM-1
once per checkpoint and returns the FRS and the TER series for one
side together. Used to check that the per-metric series give the same
values, the same undefined points and the same skip counts.

best_shift is the `mtlens.wordorder._best_shift` shipped before each
distinct candidate list was scored once per greedy step: it runs
`levenshtein` on every candidate, repeats included, and skips only a
move that puts the span back where it was. Used to check that the
search picks the same shift.
"""

from mtlens.align import train_model1, viterbi_align
from mtlens.corpus import AnalysisRun
from mtlens.errors import DataError
from mtlens.series import MetricSeries, SeriesPoint
from mtlens.wordorder import frs, levenshtein, mean_or_none, score_defined, ter


def corpus_wordorder(
    run: AnalysisRun,
    versus: str = "reference",
    iterations: int = 10,
) -> tuple[MetricSeries, MetricSeries]:
    """Per-checkpoint mean FRS and mean TER series.

    versus selects the comparison side ("reference" or "source").
    Sentences where a metric is undefined (empty other side) are
    skipped and counted in the series point. TER needs no alignment;
    when a checkpoint has no trainable pair, only its FRS point is
    undefined.
    """
    if versus not in ("reference", "source"):
        raise DataError(f"versus must be 'reference' or 'source', got {versus!r}")
    if iterations < 1:
        raise DataError("need at least one EM iteration")
    other = run.reference if versus == "reference" else run.source
    frs_points = []
    ter_points = []
    for ckpt in run.checkpoints:
        hyp = ckpt.hypotheses
        ters, skipped = score_defined(zip(hyp, other), lambda h, o: ter(h, o).ter)
        ter_points.append(SeriesPoint(ckpt.checkpoint_id, mean_or_none(ters), skipped))
        try:
            table = train_model1(hyp, other, iterations=iterations)
        except DataError:
            # no trainable pair: the whole FRS point is undefined
            frs_points.append(SeriesPoint(ckpt.checkpoint_id, None, len(hyp)))
            continue
        frss, skipped = score_defined(
            zip(hyp, other), lambda h, o: frs(viterbi_align(table, h, o), h, o).frs
        )
        frs_points.append(SeriesPoint(ckpt.checkpoint_id, mean_or_none(frss), skipped))
    suffix = "ref" if versus == "reference" else "src"
    return (
        MetricSeries(metric_name=f"frs-vs-{suffix}", points=tuple(frs_points)),
        MetricSeries(metric_name=f"ter-vs-{suffix}", points=tuple(ter_points)),
    )


def best_shift(hyp_tokens: list, ref_tokens: list, base: int):
    """Single block shift that most reduces edit distance, or None.

    Candidate moves take a contiguous hypothesis span that matches a
    reference span exactly and reinsert it at the matching reference
    position. Ties resolve to the first candidate in (start, length,
    ref position) order, keeping the greedy loop deterministic.
    """
    best = None  # (new_dist, new_tokens)
    n = len(hyp_tokens)
    for start in range(n):
        for length in range(1, n - start + 1):
            span = hyp_tokens[start : start + length]
            remaining = hyp_tokens[:start] + hyp_tokens[start + length :]
            for rpos in range(len(ref_tokens) - length + 1):
                if ref_tokens[rpos : rpos + length] != span:
                    continue
                dest = min(rpos, len(remaining))
                if dest == start:
                    continue  # no movement
                candidate = remaining[:dest] + span + remaining[dest:]
                dist = levenshtein(candidate, ref_tokens)
                if dist < base and (best is None or dist < best[0]):
                    best = (dist, candidate)
    return best
