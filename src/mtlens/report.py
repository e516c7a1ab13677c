"""Metric collection over checkpoints and CSV/SVG emission.

collect() computes one series per requested metric name from keyword
inputs, trying each metric family once; a family that lacks an input
or fails gives each requested name a note instead of a crash. BLEU is
one quality.corpus_bleus call, and one relevance pass per checkpoint
fills all three relevance series. As BLEU leaves a refused checkpoint
empty, an RMSS series leaves empty each checkpoint without hyp.emb and
notes which. CSV rows are checkpoints, columns metrics, empty cells
marking undefined points; csv_text() and format_value() also build
the robust table. SVG output assembles one 800x400 line chart per
series, stacked vertically in a single file. Its labels escape &, <
and > as xml.sax.saxutils.escape does, without importing it (that
module loads urllib, http.client and ssl), and a checkpoint id
holding a character XML 1.0 cannot carry is refused before anything
is written.
"""

import re

from .corpus import AnalysisRun, write_text
from .errors import DataError, NumericError
from .lrp import contribution_stats, contributions
from .quality import corpus_bleu, corpus_bleus  # noqa: F401 (benchmarks/spans.py wraps corpus_bleu here)
from .semsim import rmss
from .series import MetricSeries, SeriesPoint
from .wordorder import WORDORDER_METRICS, corpus_wordorder

# the metrics that read embeddings; those that read model/vocab, to their ContributionStats field
RMSS_METRICS = ("rmss-vs-ref", "rmss-vs-src")
RELEVANCE_METRICS = {
    "avg-src-contribution": "avg_source_contribution",
    "src-entropy": "source_entropy",
    "tgt-entropy": "target_entropy",
}
KNOWN_METRICS = ("bleu",) + WORDORDER_METRICS + RMSS_METRICS + tuple(RELEVANCE_METRICS)


def _bleu_series(run: AnalysisRun, lowercase: bool) -> MetricSeries:
    """corpus_bleu of each checkpoint, or no value and every sentence skipped where it fails."""
    ref = run.reference
    scores = corpus_bleus([(c.hypotheses, ref) for c in run.checkpoints], lowercase)
    points = tuple(
        SeriesPoint(c.checkpoint_id, None, len(ref))
        if isinstance(score, DataError)
        else SeriesPoint(c.checkpoint_id, score.score, 0)
        for c, score in zip(run.checkpoints, scores)
    )
    return MetricSeries(metric_name="bleu", points=points)


def hyp_emb_name(ckpt) -> str:
    """The run-relative name of a checkpoint's hypothesis embeddings."""
    return f"checkpoints/{ckpt.checkpoint_id}/hyp.emb"


def _rmss_series(run: AnalysisRun, side: str, emb: dict | None, k: int) -> tuple[MetricSeries, list]:
    """rmss of each checkpoint against the side's vectors, and the checkpoints without vectors.

    A checkpoint without hyp.emb gets no value and every sentence
    skipped; a missing side or a set of the wrong size refuses the series.
    """
    emb = emb or {}
    x_name, n = f"{side}.emb", len(run.source)
    if x_name not in emb:
        raise DataError(f"missing {side} embeddings")
    names = [hyp_emb_name(c) for c in run.checkpoints]
    for name in [x_name] + names:
        if name in emb and emb[name].count != n:
            raise DataError(f"{name} holds {emb[name].count} vectors for {n} sentences")
    points = []
    missing = []
    for ckpt, name in zip(run.checkpoints, names):
        if name in emb:
            result = rmss(emb[x_name], emb[name], k)
            points.append(SeriesPoint(ckpt.checkpoint_id, result.mean, result.skipped))
        else:
            missing.append(ckpt.checkpoint_id)
            points.append(SeriesPoint(ckpt.checkpoint_id, None, n))
    return MetricSeries(metric_name=f"rmss-vs-{side}", points=tuple(points)), missing


def corpus_contributions(model, vocab, sources, targets):
    """Relevance records of every (source, target) pair with tokens on both sides.

    Returns [(pair index, records)] in pair order, the ContributionStats
    of all those records and the number of pairs skipped.
    """
    scored = []
    skipped = 0
    for idx, (src, tgt) in enumerate(zip(sources, targets)):
        if src.tokens and tgt.tokens:
            scored.append((idx, contributions(model, src, tgt, vocab)))
        else:
            skipped += 1
    stats = contribution_stats([rec for _, records in scored for rec in records])
    return scored, stats, skipped


def _lrp_series(run: AnalysisRun, model, vocab) -> dict:
    """Every RELEVANCE_METRICS series from one relevance pass per checkpoint."""
    if model is None or vocab is None:
        raise DataError("missing model/vocab")
    points = {name: [] for name in RELEVANCE_METRICS}
    for ckpt in run.checkpoints:
        _, stats, skipped = corpus_contributions(model, vocab, run.source, ckpt.hypotheses)
        for name, field in RELEVANCE_METRICS.items():
            points[name].append(SeriesPoint(ckpt.checkpoint_id, getattr(stats, field), skipped))
    return {name: MetricSeries(name, tuple(series)) for name, series in points.items()}


def collect(run: AnalysisRun, metrics, *, iterations=10, k=4, lowercase=False,
            embeddings=None, model=None, vocab=None):
    """Compute the requested metric series.

    metrics are distinct KNOWN_METRICS names; an unknown or repeated
    name raises DataError. iterations is the FRS EM iteration count, k
    the RMSS neighbourhood size, lowercase the BLEU casing, embeddings
    the EmbeddingSets keyed by their run-relative file names ("ref.emb",
    "src.emb", "checkpoints/<id>/hyp.emb", see hyp_emb_name) with one
    vector per run sentence each, and model/vocab the transformer and
    vocabulary of the relevance metrics.

    Returns (series list in request order, notes list). Each family is
    tried once; if its inputs are missing or it raises a DataError or
    NumericError, each of its requested names gets a note instead. An
    rmss series whose checkpoints lack embeddings keeps their cells empty
    and gets a note naming them.
    """
    metrics = tuple(metrics)  # walked more than once; an iterator would be used up by the first
    unknown = [m for m in metrics if m not in KNOWN_METRICS]
    if unknown:
        raise DataError(f"unknown metrics {unknown}; known: {list(KNOWN_METRICS)}")
    repeated = sorted({m for i, m in enumerate(metrics) if m in metrics[:i]})
    if repeated:
        raise DataError(f"metrics {repeated} requested more than once")

    computed: dict[str, MetricSeries | DataError | NumericError] = {}
    gaps = {}  # rmss metric -> checkpoints left empty for want of embeddings
    for metric in metrics:
        if metric in computed:  # one relevance pass fills or refuses all three series
            continue
        try:
            if metric == "bleu":
                computed[metric] = _bleu_series(run, lowercase)
            elif metric in WORDORDER_METRICS:
                computed[metric] = corpus_wordorder(run, metric, iterations)
            elif metric in RMSS_METRICS:
                computed[metric], gaps[metric] = _rmss_series(
                    run, metric.rsplit("-", 1)[1], embeddings, k
                )
            else:
                computed.update(_lrp_series(run, model, vocab))
        except (DataError, NumericError) as exc:
            refused = RELEVANCE_METRICS if metric in RELEVANCE_METRICS else (metric,)
            computed.update(dict.fromkeys(refused, exc))

    results = [(m, computed[m]) for m in metrics]
    series = [r for _, r in results if isinstance(r, MetricSeries)]
    notes = []
    for m, r in results:
        if not isinstance(r, MetricSeries):
            notes.append(f"{m}: skipped ({r})")
        elif gaps.get(m):
            notes.append(f"{m}: no value for {gaps[m]} (missing checkpoint embeddings)")
    return series, notes


def format_value(value) -> str:
    """A number as a CSV cell: 12 significant digits, empty when undefined."""
    return "" if value is None else f"{value:.12g}"


def _csv_cell(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(rows) -> str:
    """Rows of string cells as RFC 4180 CSV, but with LF row ends.

    Only a cell that holds a comma, a double quote, CR or LF is quoted.
    """
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


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
    rows = [["checkpoint"] + [s.metric_name for s in series_list]]
    for row, ckpt_id in enumerate(ids):
        rows.append([ckpt_id] + [format_value(s.points[row].value) for s in series_list])
    write_text(path, csv_text(rows))


# anything outside XML 1.0's Char production: C0 controls but tab/LF/CR, surrogates, U+FFFE/FFFF
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def escape(text: str) -> str:
    """text with &, < and > as entities, as xml.sax.saxutils.escape(text) gives it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


CHART_W = 800
CHART_H = 400
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 30
MARGIN_B = 50


def _text(x, y, anchor, size, body) -> str:
    return f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}">{body}</text>'


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

    x0, y0 = MARGIN_L, CHART_H - MARGIN_B
    mid = f"{CHART_W / 2:.1f}"
    lines = [
        f'<g transform="translate(0,{y_offset})">',
        _text(mid, 18, "middle", 14, escape(series.metric_name)),
        # axes
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{CHART_W - MARGIN_R}" y2="{y0}" stroke="black"/>',
        *(_text(x0 - 8, f"{sy(v):.1f}", "end", 10, f"{v:.4g}") for v in (hi - pad, lo + pad)),
        *(_text(f"{sx(i):.1f}", y0 + 16, "middle", 10, escape(point.checkpoint_id))
          for i, point in enumerate(series.points)),
        _text(mid, y0 + 34, "middle", 11, "checkpoint"),
    ]
    if pts:
        coords = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in pts)
        lines.append(f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
                     f'points="{coords}"/>')
    else:
        lines.append('<polyline fill="none" stroke="steelblue" points=""/>')
    return "\n".join(lines + ["</g>"])


def emit_svg(series_list, path) -> None:
    """One line chart per series, stacked in a single SVG document."""
    if not series_list:
        raise DataError("no series to emit")
    for point in (p for s in series_list for p in s.points):
        bad = _NOT_XML_CHAR.search(point.checkpoint_id)
        if bad:
            raise DataError(
                f"checkpoint name {point.checkpoint_id!r} holds U+{ord(bad.group()):04X}, "
                "which an SVG (XML 1.0) cannot carry"
            )
    total_h = CHART_H * len(series_list)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_W}" '
        f'height="{total_h}" viewBox="0 0 {CHART_W} {total_h}">',
    ]
    for idx, series in enumerate(series_list):
        parts.append(_chart(series, idx * CHART_H))
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
