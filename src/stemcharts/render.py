"""Chart rendering: text grids and SVG documents.

Rendering never mutates chart data; output is deterministic (entries are
walked in the canonical (j, i) order and coordinates are integers).
"""

from __future__ import annotations

from .charts import BigradedChart


def _cells(chart: BigradedChart, view: str):
    """{(x, y): desc} in the selected view.

    view "ij": x = i, y = j.  view "stem-weight": interpret (i, j) as
    (s, t) Ext coordinates and plot x = stem t - s, y = s.  Both maps are
    one-to-one, so no two entries share a cell.
    """
    if view == "stem-weight":
        return {(j - i, i): g for (i, j), g in chart.entries.items()}
    return chart.entries


def render_text(chart: BigradedChart, view: str = "ij") -> str:
    if view not in ("ij", "stem-weight"):
        raise ValueError(f"unknown view {view!r}")
    cells = _cells(chart, view)
    if not cells:
        header = [chart.label] if chart.label else []
        return "\n".join(header + ["0 |  .", "  +---", "     0"]) + "\n"
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    labels = {pos: g.shorthand() for pos, g in cells.items()}
    width = max(3, max(len(s) for s in labels.values()) + 1)
    ylab = max(len(str(y)) for y in range(y_lo, y_hi + 1))
    lines = []
    if chart.label:
        lines.append(chart.label)
    xname, yname = ("i", "j") if view == "ij" else ("stem", "s")
    for y in range(y_hi, y_lo - 1, -1):
        row = [f"{y:>{ylab}} |"]
        for x in range(x_lo, x_hi + 1):
            row.append(f"{labels.get((x, y), '.'):>{width}}")
        lines.append("".join(row))
    lines.append(" " * ylab + " +" + "-" * (width * (x_hi - x_lo + 1)))
    axis = [" " * ylab + "  "]
    for x in range(x_lo, x_hi + 1):
        axis.append(f"{x:>{width}}")
    lines.append("".join(axis))
    lines.append(f"({yname} vertical, {xname} horizontal)")
    return "\n".join(lines) + "\n"


CELL = 28
PAD = 46


def render_svg(chart: BigradedChart, view: str = "ij") -> str:
    if view not in ("ij", "stem-weight"):
        raise ValueError(f"unknown view {view!r}")
    cells = _cells(chart, view)
    if not cells:
        xs_range = ys_range = range(0, 1)
    else:
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        xs_range = range(min(xs), max(xs) + 1)
        ys_range = range(min(ys), max(ys) + 1)
    w = PAD * 2 + CELL * len(xs_range)
    h = PAD * 2 + CELL * len(ys_range)

    def px(x):
        return PAD + CELL // 2 + CELL * (x - xs_range.start)

    def py(y):
        return h - (PAD + CELL // 2 + CELL * (y - ys_range.start))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    if chart.label:
        parts.append(f'<text x="{PAD}" y="18" font-size="12" '
                     f'font-family="monospace">{_esc(chart.label)}</text>')
    for x in xs_range:
        parts.append(f'<line x1="{px(x)}" y1="{PAD}" x2="{px(x)}" '
                     f'y2="{h - PAD}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{px(x)}" y="{h - PAD + 16}" font-size="9" '
                     f'text-anchor="middle" font-family="monospace">{x}</text>')
    for y in ys_range:
        parts.append(f'<line x1="{PAD}" y1="{py(y)}" x2="{w - PAD}" '
                     f'y2="{py(y)}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{PAD - 16}" y="{py(y) + 3}" font-size="9" '
                     f'text-anchor="middle" font-family="monospace">{y}</text>')
    for (x, y) in sorted(cells, key=lambda pos: (pos[1], pos[0])):
        g = cells[(x, y)]
        cx, cy = px(x), py(y)
        glyphs = []
        if g.free_rank != 0 or g.divisible:
            glyphs.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="#1f4e9c"/>')
        if g.torsion or g.torsion_infinite:
            glyphs.append(f'<circle cx="{cx}" cy="{cy}" r="8" fill="none" '
                          f'stroke="#b02020" stroke-width="1.5"/>')
        label = g.shorthand()
        glyphs.append(f'<text x="{cx + 10}" y="{cy - 6}" font-size="8" '
                      f'font-family="monospace">{_esc(label)}</text>')
        parts.extend(glyphs)
    xname, yname = ("i", "j") if view == "ij" else ("stem", "filtration")
    parts.append(f'<text x="{w - PAD}" y="{h - 8}" font-size="10" '
                 f'text-anchor="end" font-family="monospace">{xname}</text>')
    parts.append(f'<text x="10" y="{PAD}" font-size="10" '
                 f'font-family="monospace">{yname}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
