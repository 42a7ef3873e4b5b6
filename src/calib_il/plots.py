"""Deterministic hand-rolled SVG charts; the metrics CSVs stay the source
of truth, these are just views.

Two shapes: per-state accuracy line charts (raw baselines dashed,
corrected series solid) and lower-triangular group-accuracy heat grids
with the k > s cells masked. Same input always renders byte-identical
markup: fixed canvas, fixed float formatting, no timestamps.
``cmd_plot`` is the ``plot`` subcommand; like the rest of the module it
needs no numpy, so ``plot`` loads none.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path

from .pipeline import METHODS, RunSpec, kv
from .storage import read_metrics_rows, read_per_state, write_svg

log = logging.getLogger("calib_il")

WIDTH, HEIGHT = 480, 320
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 34, 44

PALETTE = ("#1f3b73", "#b03a2e", "#1e8449", "#b9770e", "#6c3483", "#117a8b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _color(value: float) -> str:
    """White -> deep blue over [0, 1]."""
    t = min(max(float(value), 0.0), 1.0)
    r = round(255 + (31 - 255) * t)
    g = round(255 + (59 - 255) * t)
    b = round(255 + (115 - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="13">'
        f"{_escape(title)}</text>",
    ]


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def render_line_chart(title: str, num_states: int, series) -> str:
    """Accuracy-vs-state chart of ``series``, an ordered mapping of each
    method to its accuracies at states 1..``num_states`` (at least 2);
    ``raw`` is dashed. The y axis is fixed to [0, 1] for comparability."""
    states = range(1, num_states + 1)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(state):
        return MARGIN_L + (state - 1) / (num_states - 1) * plot_w

    def py(v):
        return MARGIN_T + (1.0 - v) * plot_h

    out = _header(title)
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>')
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = py(tick)
        out.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                   f'y2="{_fmt(y)}" stroke="#444444"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">'
                   f"{tick:.1f}</text>")
    for tick in states:
        x = px(tick)
        out.append(f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(x)}" '
                   f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#444444"/>')
        out.append(f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 16}" '
                   f'text-anchor="middle">{tick:g}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 8}" '
               'text-anchor="middle">state</text>')
    out.append(f'<text x="14" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
               f'transform="rotate(-90 14 {MARGIN_T + plot_h // 2})">accuracy</text>')

    for i, (label, accuracies) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6 4"' if label == "raw" else ""
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(states, accuracies))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        for x, y in zip(states, accuracies):
            out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                       f'fill="{color}"/>')
        ly = MARGIN_T + 14 + 14 * i
        out.append(f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" '
                   f'x2="{WIDTH - MARGIN_R - 126}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{WIDTH - MARGIN_R - 120}" y="{ly}">'
                   f"{_escape(label)}</text>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_heat_grid(title: str, rows) -> str:
    """Lower-triangular heat grid of accuracy-per-group by state.

    Row s of ``rows`` holds s numbers: the accuracy at state s on the
    classes first seen in each state k <= s. The cells k > s, which no
    state has, are masked.
    """
    n = len(rows)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell = min(plot_w / n, plot_h / n)
    x0, y0 = MARGIN_L, MARGIN_T + 6
    out = _header(title)
    for s in range(1, n + 1):
        for k in range(1, n + 1):
            x = x0 + (k - 1) * cell
            y = y0 + (s - 1) * cell
            if k > s:
                out.append(f'<rect class="masked" x="{_fmt(x)}" y="{_fmt(y)}" '
                           f'width="{_fmt(cell)}" height="{_fmt(cell)}" '
                           f'fill="#eeeeee"/>')
                continue
            value = rows[s - 1][k - 1]
            if math.isnan(value):
                fill, text = "#eeeeee", "-"
            else:
                fill, text = _color(value), f"{100 * value:.1f}"
            out.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell)}" '
                       f'height="{_fmt(cell)}" fill="{fill}" stroke="#ffffff"/>')
            shade = "#ffffff" if not math.isnan(value) and value > 0.6 else "#222222"
            out.append(f'<text x="{_fmt(x + cell / 2)}" y="{_fmt(y + cell / 2 + 4)}" '
                       f'text-anchor="middle" fill="{shade}">{text}</text>')
    for s in range(1, n + 1):
        out.append(f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y0 + (s - 0.5) * cell + 4)}" '
                   f'text-anchor="end">s={s}</text>')
        out.append(f'<text x="{_fmt(x0 + (s - 0.5) * cell)}" '
                   f'y="{_fmt(y0 + n * cell + 14)}" text-anchor="middle">k={s}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(spec: RunSpec, out: Path):
    """Render accuracy line charts and group-accuracy heat grids of the
    spec's targets ``target_0..T-1`` over its states ``1..S``, from the
    CSVs that run-target wrote for the spec. Every input is read, and must
    hold exactly the rows written for that shape, before any chart is."""
    out = Path(out)
    num_states = spec.schedule.num_states
    targets = [f"target_{j}" for j in range(spec.num_targets)]
    points = read_per_state(out / "per_state.csv", targets, METHODS, num_states)
    grids = {(target, method): read_metrics_rows(out / "metrics" / f"{target}_{method}.csv",
                                                 num_states)
             for target in targets for method in ("raw", "adbic")}
    for target in targets:
        charts = {f"accuracy_{target}": render_line_chart(
            f"{target}: accuracy per state", num_states,
            {method: points[target, method] for method in METHODS})}
        for method in ("raw", "adbic"):
            charts[f"heat_{target}_{method}"] = render_heat_grid(
                f"{target} {method}: group accuracy", grids[target, method])
        for name, markup in charts.items():
            path = out / "plots" / f"{name}.svg"
            write_svg(path, markup)
            log.info(kv(event="plot", path=path))
