"""Self-contained SVG heatmaps for correlation matrices.

The color scale is anchored at fixed endpoints so heatmaps from
different corpora are comparable: +1 is pure blue, 0 white, -1 pure
red, interpolated linearly per channel.  Undefined entries render
grey.  Problems are laid out in cluster display order with black
separator lines at cluster boundaries (and before the undefined
block, when present).
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .cluster import ClusterResult, CorrelationMatrix

CELL = 14
LABEL_SPACE = 110
FONT = 9

GREY = (128, 128, 128)


def color_for(r: float) -> tuple[int, int, int]:
    """Diverging map: r=+1 -> blue, 0 -> white, -1 -> red."""
    t = max(-1.0, min(1.0, r))
    if t >= 0:
        c = round(255 * (1.0 - t))
        return (c, c, 255)
    c = round(255 * (1.0 + t))
    return (255, c, c)


def render_heatmap(
    corr: CorrelationMatrix, clustering: ClusterResult, title: str = ""
) -> str:
    """Render the matrix as standalone SVG text in cluster display order."""
    order = clustering.display_order
    index = {p: corr.problems.index(p) for p in order}
    n = len(order)
    width = LABEL_SPACE + n * CELL + 20
    height = LABEL_SPACE + n * CELL + 20
    x0 = y0 = LABEL_SPACE

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{x0}" y="16" font-size="12" font-family="sans-serif">'
            f"{escape(title)}</text>"
        )

    values = corr.values
    for row, p_row in enumerate(order):
        i = index[p_row]
        y = y0 + row * CELL
        for col, p_col in enumerate(order):
            j = index[p_col]
            x = x0 + col * CELL
            v = values[i, j]
            if np.isnan(v):
                fill = "rgb(%d,%d,%d)" % GREY
                label = "undefined"
            else:
                fill = "rgb(%d,%d,%d)" % color_for(float(v))
                label = f"{float(v):+.4f}"
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}"><title>{escape(p_row)} / {escape(p_col)}: {label}'
                "</title></rect>"
            )

    for row, p in enumerate(order):
        y = y0 + row * CELL + CELL - 4
        parts.append(
            f'<text x="{x0 - 4}" y="{y}" font-size="{FONT}" text-anchor="end" '
            f'font-family="sans-serif">{escape(p)}</text>'
        )
    for col, p in enumerate(order):
        x = x0 + col * CELL + CELL - 4
        parts.append(
            f'<text x="{x}" y="{y0 - 4}" font-size="{FONT}" text-anchor="start" '
            f'font-family="sans-serif" transform={quoteattr(f"rotate(-90 {x} {y0 - 4})")}>'
            f"{escape(p)}</text>"
        )

    boundaries = []
    pos = 0
    for members in clustering.clusters:
        pos += len(members)
        if pos < n:
            boundaries.append(pos)
    if clustering.excluded and len(clustering.dendrogram.leaf_order) < n:
        cut = len(clustering.dendrogram.leaf_order)
        if cut not in boundaries and 0 < cut < n:
            boundaries.append(cut)
    extent = n * CELL
    for b in sorted(boundaries):
        offset = b * CELL
        parts.append(
            f'<line x1="{x0 + offset}" y1="{y0}" x2="{x0 + offset}" '
            f'y2="{y0 + extent}" stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{y0 + offset}" x2="{x0 + extent}" '
            f'y2="{y0 + offset}" stroke="black" stroke-width="1.5"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

