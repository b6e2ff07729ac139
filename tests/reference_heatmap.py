"""Test-only heatmap references.

``render_heatmap`` and ``color_for`` are the per-cell renderer the
package shipped before it drew cells from one numpy pass; the package's
output must equal theirs byte for byte.  ``read_heatmap_cells`` inverts
the color map, to check rendered SVG cells against the correlation
values they were drawn from.
"""

import math
import xml.etree.ElementTree as ET
from html import escape

import numpy as np

from infobench.cluster import ClusterResult, CorrelationMatrix
from infobench.heatmap import CELL, FONT, GREY, LABEL_SPACE


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
            f"{escape(title, quote=False)}</text>"
        )

    idx = [corr.problems.index(p) for p in order]
    names = [escape(p, quote=False) for p in order]
    grid = corr.values[np.ix_(idx, idx)].tolist()
    for row, (name_row, values) in enumerate(zip(names, grid)):
        y = y0 + row * CELL
        for col, (name_col, v) in enumerate(zip(names, values)):
            x = x0 + col * CELL
            if math.isnan(v):
                fill = "rgb(%d,%d,%d)" % GREY
                label = "undefined"
            else:
                fill = "rgb(%d,%d,%d)" % color_for(v)
                label = f"{v:+.4f}"
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}"><title>{name_row} / {name_col}: {label}'
                "</title></rect>"
            )

    for row, p in enumerate(names):
        y = y0 + row * CELL + CELL - 4
        parts.append(
            f'<text x="{x0 - 4}" y="{y}" font-size="{FONT}" text-anchor="end" '
            f'font-family="sans-serif">{p}</text>'
        )
    for col, p in enumerate(names):
        x = x0 + col * CELL + CELL - 4
        parts.append(
            f'<text x="{x}" y="{y0 - 4}" font-size="{FONT}" text-anchor="start" '
            f'font-family="sans-serif" transform="rotate(-90 {x} {y0 - 4})">'
            f"{p}</text>"
        )

    boundaries = []
    pos = 0
    for members in clustering.clusters:
        pos += len(members)
        if pos < n:
            boundaries.append(pos)
    extent = n * CELL
    for b in boundaries:
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


def value_from_color(rgb: tuple[int, int, int]) -> float | None:
    """Invert ``color_for`` to within half a channel step; None for grey."""
    r, g, b = rgb
    if (r, g, b) == GREY:
        return None
    if b == 255:
        return 1.0 - r / 255.0
    if r == 255:
        return -(1.0 - g / 255.0)
    raise ValueError(f"color {rgb} is not on the heatmap scale")


def _parse_rgb(text: str) -> tuple[int, int, int]:
    inner = text.strip()
    if not (inner.startswith("rgb(") and inner.endswith(")")):
        raise ValueError(f"expected rgb(...) fill, got {text!r}")
    parts = inner[4:-1].split(",")
    return tuple(int(p.strip()) for p in parts)  # type: ignore[return-value]


def read_heatmap_cells(svg_text: str) -> dict[tuple[int, int], float | None]:
    """Recover (row, col) -> value from rendered SVG via geometry and
    the inverse color map."""
    root = ET.fromstring(svg_text)
    cells: dict[tuple[int, int], float | None] = {}
    for rect in root.iter("{http://www.w3.org/2000/svg}rect"):
        if rect.get("class") != "cell":
            continue
        col = (int(rect.get("x")) - LABEL_SPACE) // CELL
        row = (int(rect.get("y")) - LABEL_SPACE) // CELL
        cells[(row, col)] = value_from_color(_parse_rgb(rect.get("fill")))
    return cells
