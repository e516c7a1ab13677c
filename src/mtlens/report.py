"""Metric collection over checkpoints and CSV/SVG emission.

collect() computes one series per requested metric name; metrics
whose extra inputs (embeddings, model) are missing produce a note
instead of a crash. CSV rows are checkpoints, columns metrics, empty
cells marking undefined points. SVG output assembles one 800x400
line chart per series, stacked vertically in a single file.
"""

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .corpus import AnalysisRun
from .errors import DataError, NumericError
from .lrp import contribution_stats, contributions
from .quality import corpus_bleu
from .semsim import EmbeddingSet, rmss
from .series import MetricSeries, SeriesPoint
from .wordorder import corpus_wordorder

# the metrics that read ReportInputs.embeddings, and those that read model/vocab
RMSS_METRICS = ("rmss-vs-ref", "rmss-vs-src")
RELEVANCE_METRICS = ("avg-src-contribution", "src-entropy", "tgt-entropy")
KNOWN_METRICS = (
    "bleu",
    "frs-vs-ref",
    "ter-vs-ref",
    "frs-vs-src",
    "ter-vs-src",
) + RMSS_METRICS + RELEVANCE_METRICS


@dataclass
class ReportInputs:
    """Optional inputs some metrics need.

    embeddings: {"ref": EmbeddingSet, "src": EmbeddingSet,
                 "checkpoints": {id: EmbeddingSet}}
    model/vocab: transformer + vocabulary for relevance metrics.
    """

    embeddings: dict | None = None
    model: object | None = None
    vocab: object | None = None
    align_iterations: int = 10
    rmss_k: int = 4
    lowercase: bool = False


def _bleu_series(run: AnalysisRun, inputs: ReportInputs) -> MetricSeries:
    points = []
    for ckpt in run.checkpoints:
        try:
            score = corpus_bleu(
                ckpt.hypotheses, run.reference, lowercase=inputs.lowercase
            ).score
            points.append(SeriesPoint(ckpt.checkpoint_id, score, 0))
        except DataError:
            points.append(SeriesPoint(ckpt.checkpoint_id, None, len(run.reference)))
    return MetricSeries(metric_name="bleu", points=tuple(points))


def _rmss_series(run: AnalysisRun, side: str, inputs: ReportInputs) -> MetricSeries:
    emb = inputs.embeddings
    x_set: EmbeddingSet = emb[side]
    points = []
    for ckpt in run.checkpoints:
        y_set = emb["checkpoints"][ckpt.checkpoint_id]
        result = rmss(x_set, y_set, inputs.rmss_k)
        points.append(SeriesPoint(ckpt.checkpoint_id, result.mean, result.skipped))
    return MetricSeries(metric_name=f"rmss-vs-{side}", points=tuple(points))


def _lrp_series(run: AnalysisRun, inputs: ReportInputs) -> dict:
    by_metric = {name: [] for name in RELEVANCE_METRICS}
    for ckpt in run.checkpoints:
        records = []
        skipped = 0
        for src, hyp in zip(run.source, ckpt.hypotheses):
            if not src.tokens or not hyp.tokens:
                skipped += 1
                continue
            records.extend(contributions(inputs.model, src, hyp, inputs.vocab))
        if records:
            stats = contribution_stats(records)
            values = {
                "avg-src-contribution": stats.avg_source_contribution,
                "src-entropy": stats.source_entropy,
                "tgt-entropy": stats.target_entropy,
            }
        else:
            values = dict.fromkeys(by_metric, None)
        for name, series_points in by_metric.items():
            series_points.append(SeriesPoint(ckpt.checkpoint_id, values[name], skipped))
    return {
        name: MetricSeries(metric_name=name, points=tuple(points))
        for name, points in by_metric.items()
    }


def collect(run: AnalysisRun, metrics, inputs: ReportInputs | None = None):
    """Compute the requested metric series.

    Returns (series list in request order, notes list). A metric whose
    inputs are unavailable is dropped from the series list and noted.
    """
    inputs = inputs or ReportInputs()
    unknown = [m for m in metrics if m not in KNOWN_METRICS]
    if unknown:
        raise DataError(f"unknown metrics {unknown}; known: {list(KNOWN_METRICS)}")

    notes: list[str] = []
    computed: dict[str, MetricSeries] = {}

    def need_embeddings(side):
        emb = inputs.embeddings
        if not emb or side not in emb or "checkpoints" not in emb:
            return f"missing {side} embeddings"
        missing = [
            c.checkpoint_id
            for c in run.checkpoints
            if c.checkpoint_id not in emb["checkpoints"]
        ]
        if missing:
            return f"missing checkpoint embeddings for {missing}"
        return None

    for metric in metrics:
        if metric in computed:
            continue
        try:
            if metric == "bleu":
                computed[metric] = _bleu_series(run, inputs)
            elif metric in ("frs-vs-ref", "ter-vs-ref", "frs-vs-src", "ter-vs-src"):
                versus = "reference" if metric.endswith("ref") else "source"
                frs_series, ter_series = corpus_wordorder(
                    run, versus=versus, iterations=inputs.align_iterations
                )
                computed[frs_series.metric_name] = frs_series
                computed[ter_series.metric_name] = ter_series
            elif metric in RMSS_METRICS:
                side = metric.rsplit("-", 1)[1]
                problem = need_embeddings(side)
                if problem:
                    notes.append(f"{metric}: skipped ({problem})")
                    continue
                computed[metric] = _rmss_series(run, side, inputs)
            else:  # relevance metrics
                if inputs.model is None or inputs.vocab is None:
                    notes.append(f"{metric}: skipped (missing model/vocab)")
                    continue
                computed.update(_lrp_series(run, inputs))
        except (DataError, NumericError) as exc:
            notes.append(f"{metric}: skipped ({exc})")

    series = [computed[m] for m in metrics if m in computed]
    return series, notes


def _format_value(value) -> str:
    return "" if value is None else f"{value:.12g}"


def emit_csv(series_list, path) -> None:
    """Header checkpoint,<metric...>; one row per checkpoint."""
    if not series_list:
        raise DataError("no series to emit")
    ids = series_list[0].checkpoint_ids()
    for s in series_list:
        if s.checkpoint_ids() != ids:
            raise DataError(
                f"series {s.metric_name!r} covers different checkpoints"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("checkpoint," + ",".join(s.metric_name for s in series_list) + "\n")
        for row, ckpt_id in enumerate(ids):
            cells = [_format_value(s.points[row].value) for s in series_list]
            fh.write(ckpt_id + "," + ",".join(cells) + "\n")


CHART_W = 800
CHART_H = 400
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 30
MARGIN_B = 50


def _chart(series: MetricSeries, y_offset: int) -> str:
    pts = [(i, p.value) for i, p in enumerate(series.points) if p.value is not None]
    values = [v for _, v in pts]
    lo = min(values) if values else 0.0
    hi = max(values) if values else 1.0
    pad = (hi - lo) * 0.05 or max(abs(hi), 1.0) * 0.05
    lo -= pad
    hi += pad
    n = max(len(series.points) - 1, 1)

    def sx(i):
        return MARGIN_L + (CHART_W - MARGIN_L - MARGIN_R) * (i / n)

    def sy(v):
        return MARGIN_T + (CHART_H - MARGIN_T - MARGIN_B) * (1.0 - (v - lo) / (hi - lo))

    lines = [f'<g transform="translate(0,{y_offset})">']
    lines.append(
        f'<text x="{CHART_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{escape(series.metric_name)}</text>'
    )
    # axes
    x0, y0 = MARGIN_L, CHART_H - MARGIN_B
    lines.append(
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    lines.append(
        f'<line x1="{x0}" y1="{y0}" x2="{CHART_W - MARGIN_R}" y2="{y0}" stroke="black"/>'
    )
    lines.append(
        f'<text x="{x0 - 8}" y="{sy(hi - pad):.1f}" text-anchor="end" '
        f'font-size="10">{hi - pad:.4g}</text>'
    )
    lines.append(
        f'<text x="{x0 - 8}" y="{sy(lo + pad):.1f}" text-anchor="end" '
        f'font-size="10">{lo + pad:.4g}</text>'
    )
    for i, point in enumerate(series.points):
        lines.append(
            f'<text x="{sx(i):.1f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-size="10">{escape(point.checkpoint_id)}</text>'
        )
    lines.append(
        f'<text x="{CHART_W / 2:.1f}" y="{y0 + 34}" text-anchor="middle" '
        f'font-size="11">checkpoint</text>'
    )
    if pts:
        coords = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in pts)
        lines.append(
            f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    else:
        lines.append('<polyline fill="none" stroke="steelblue" points=""/>')
    lines.append("</g>")
    return "\n".join(lines)


def emit_svg(series_list, path) -> None:
    """One line chart per series, stacked in a single SVG document."""
    if not series_list:
        raise DataError("no series to emit")
    total_h = CHART_H * len(series_list)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_W}" '
        f'height="{total_h}" viewBox="0 0 {CHART_W} {total_h}">',
    ]
    for idx, series in enumerate(series_list):
        parts.append(_chart(series, idx * CHART_H))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
