"""Reference SVG chart writer: one <text> template per label kind.

This is `_chart` as `mtlens.report` shipped it before one `_text`
helper wrote all five of its <text> kinds (title, top and bottom value
labels, checkpoint labels, axis caption). The layout constants and the
label escape are the production ones, so the two must give equal
strings, compared with ==.
"""

from mtlens.report import CHART_H, CHART_W, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, escape
from mtlens.series import MetricSeries


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
