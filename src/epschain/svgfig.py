"""Static SVG figures of clouds with optional chain overlays.

Pure emission: deterministic text out, no interaction, no plotting backend.
Coordinates are mapped y-up into a fixed-width viewport with a margin.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .chain import Chain
from .space import PointCloud

_PART_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_CHAIN_COLORS = ("#ff7f0e", "#17becf", "#bcbd22", "#7f7f7f")
_POINT_RADIUS = 2.0
_MARGIN = 20.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def cloud_figure(cloud: PointCloud, chains=(), width: int = 900) -> str:
    """Render a coordinate cloud (and chains over it) as an SVG 1.1 document."""
    if cloud.points is None:
        raise ValueError("only coordinate clouds can be drawn")
    if width <= 2 * _MARGIN:
        raise ValueError(f"width must exceed twice the margin, {2 * _MARGIN:g}; got {width}")
    pts = np.asarray(cloud.points, dtype=float)
    if len(pts) == 0:
        pts = np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (width - 2 * _MARGIN) / span[0]
    height = int(round(span[1] * scale + 2 * _MARGIN))

    def to_px(p):
        x = _MARGIN + (p[0] - lo[0]) * scale
        y = height - _MARGIN - (p[1] - lo[1]) * scale
        return x, y

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg", version="1.1",
                     width=str(width), height=str(height),
                     viewBox=f"0 0 {width} {height}")
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width),
                  height=str(height), fill="white")
    color_of = {}
    for k, part in enumerate(cloud.parts):
        color_of[part] = _PART_COLORS[k % len(_PART_COLORS)]
    for k, chain in enumerate(chains):
        if not isinstance(chain, Chain):
            raise TypeError("chain overlays must be Chain objects")
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (to_px(cloud.points[v]) for v in chain.vertices))
        ET.SubElement(svg, "polyline", points=coords, fill="none",
                      stroke=_CHAIN_COLORS[k % len(_CHAIN_COLORS)],
                      attrib={"stroke-width": "2.5", "stroke-opacity": "0.85"})
    for idx, p in enumerate(cloud.points):
        px, py = to_px(p)
        fill = "#333333"
        if cloud.labels is not None:
            fill = color_of.get(cloud.labels[idx], fill)
        ET.SubElement(svg, "circle", cx=_fmt(px), cy=_fmt(py),
                      r=_fmt(_POINT_RADIUS), fill=fill)
    return ET.tostring(svg, encoding="unicode") + "\n"
