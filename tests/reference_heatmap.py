"""Inverse of the heatmap color map, used to check rendered SVG cells
against the correlation values they were drawn from."""

import xml.etree.ElementTree as ET

from infobench.heatmap import CELL, GREY, LABEL_SPACE


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
