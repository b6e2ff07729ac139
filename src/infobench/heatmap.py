"""Self-contained SVG heatmaps for correlation matrices.

The color scale is anchored at fixed endpoints so heatmaps from
different corpora are comparable: +1 is pure blue, 0 white, -1 pure
red, interpolated linearly per channel.  Undefined entries render
grey.  Problems are laid out in cluster display order with black
separator lines at cluster boundaries (and before the undefined
block, when present).
"""

from __future__ import annotations

from html import escape

import numpy as np

from .cluster import ClusterResult, CorrelationMatrix

CELL = 14
LABEL_SPACE = 110
FONT = 9

GREY = (128, 128, 128)


# fill for each color code: 0-255 blue rgb(c,c,255), 256-511 red
# rgb(255,c,c), 512 grey
_FILLS = (
    *(f"rgb({c},{c},255)" for c in range(256)),
    *(f"rgb(255,{c},{c})" for c in range(256)),
    "rgb(%d,%d,%d)" % GREY,
)
_UNDEFINED = len(_FILLS) - 1


def _fill_codes(grid: np.ndarray) -> np.ndarray:
    """Diverging map as codes into ``_FILLS``: r=+1 -> blue, 0 -> white,
    -1 -> red, NaN -> grey.  ``np.rint`` rounds half to even, as ``round``
    does, so the two varying channels are ``round(255 * (1 - |t|))``."""
    undefined = np.isnan(grid)
    t = np.clip(np.where(undefined, 0.0, grid), -1.0, 1.0)
    codes = np.where(t >= 0, np.rint(255 * (1.0 - t)), 256 + np.rint(255 * (1.0 + t)))
    codes = codes.astype(np.intp)
    codes[undefined] = _UNDEFINED
    return codes


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

    position = {p: i for i, p in enumerate(corr.problems)}
    idx = [position[p] for p in order]
    names = [escape(p, quote=False) for p in order]
    grid = corr.values[np.ix_(idx, idx)]
    columns = [
        (f'<rect class="cell" x="{x0 + col * CELL}"', f" / {name}: ")
        for col, name in enumerate(names)
    ]
    for row, (name_row, values, codes) in enumerate(zip(names, grid, _fill_codes(grid))):
        y_part = f' y="{y0 + row * CELL}" width="{CELL}" height="{CELL}" fill="'
        title = f'"><title>{name_row}'
        # one string per row, so the parts hold n strings, not n**2
        parts.append("\n".join(
            f"{x_part}{y_part}{_FILLS[code]}{title}{name_part}"
            f'{"undefined" if v != v else f"{v:+.4f}"}</title></rect>'
            for (x_part, name_part), v, code in zip(columns, values.tolist(), codes.tolist())
        ))

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

    parts.append("</svg>\n")
    return "\n".join(parts)

