"""Reference word-order series that fill FRS and TER in one pass.

This is the `mtlens.wordorder.corpus_wordorder` shipped before each
word-order metric became its own computation: one call trains IBM-1
once per checkpoint and returns the FRS and the TER series for one
side together. Used to check that the per-metric series give the same
values, the same undefined points and the same skip counts.
"""

from mtlens.align import train_model1, viterbi_align
from mtlens.corpus import AnalysisRun
from mtlens.errors import DataError
from mtlens.series import MetricSeries, SeriesPoint
from mtlens.wordorder import frs, mean_or_none, score_defined, ter


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
