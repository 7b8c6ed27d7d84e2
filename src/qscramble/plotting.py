"""Minimal self-contained SVG line plots for scan reports.

No plotting dependency: reports are small (a few hundred points) and a
polyline per curve with hand-placed axes covers everything the CLI needs.
Output is a single standalone ``<svg>`` document.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 36, 56
_COLORS = ["#1f6fb2", "#c4463a", "#3c8c4e", "#8653a0", "#b0771e"]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(t) for t in ticks]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot_svg(x: Sequence[float], curves: List[Tuple[str, Sequence[float]]],
                  title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render labelled curves over a shared x axis as an SVG string."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in curves]
    if not len(x) or not curves:
        raise ValueError("need at least one point and one curve")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    font = 'font-family="Helvetica,Arial,sans-serif"'

    for tv in _nice_ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T}" x2="{px:.1f}" '
                   f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                   f'{font} font-size="12" text-anchor="middle">'
                   f'{_fmt(tv)}</text>')
    for tv in _nice_ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(f'<line x1="{_MARGIN_L}" y1="{py:.1f}" '
                   f'x2="{_WIDTH - _MARGIN_R}" y2="{py:.1f}" '
                   f'stroke="#dddddd"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" {font} '
                   f'font-size="12" text-anchor="end">{_fmt(tv)}</text>')

    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333"/>')

    for k, (label, y) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}"
                       for xv, yv in zip(x, ys[k]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        ly = _MARGIN_T + 16 + 18 * k
        lx = _WIDTH - _MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{lx + 32}" y="{ly}" {font} font-size="13">'
                   f'{label}</text>')

    if title:
        out.append(f'<text x="{_WIDTH / 2:.0f}" y="22" {font} '
                   f'font-size="15" text-anchor="middle">{title}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" '
                   f'y="{_HEIGHT - 14}" {font} font-size="13" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(f'<text x="18" y="{cy:.0f}" {font} font-size="13" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 18 {cy:.0f})">{ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_scan_svg(report, path: str) -> None:
    """Plot both witness columns of a scan report to an SVG file."""
    cfg = report.config
    xlabel = "theta" if cfg.model == "clifford" else "t"
    title = f"{cfg.model} n={cfg.n} n_c={cfg.resolved_n_c()}"
    svg = line_plot_svg(
        report.times,
        [("-I3", report.column("minusI3")),
         ("-T3", report.column("minusT3"))],
        title=title, xlabel=xlabel, ylabel="witness")
    with open(path, "w") as fh:
        fh.write(svg)
