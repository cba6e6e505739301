"""Arc-diagram emission for arrangements.

Nodes sit on a horizontal spine in position order; every edge is drawn as an
arc above the spine whose height is proportional to its span. Crossing edges
therefore cross in the drawing, and nested (dominated) edges nest. Output is
deterministic byte for byte.
"""

from __future__ import annotations

from typing import Iterable

from .arrangement import Arrangement, _check_arity, _span
from .errors import ValidationError
from .graph import Graph
from .graphio import _resolve_labels

FORMATS = ("dot", "tikz", "svg")


def _spine(g: Graph, arr: Arrangement, labels: Iterable[str] | None):
    _check_arity(g, arr)
    labels = _resolve_labels(labels, g)
    spine = [labels[v] for v in arr.vertex_order()]
    # Arcs as (left position, right position, left label, right label).
    arcs = sorted((lo, hi, spine[lo - 1], spine[hi - 1])
                  for lo, hi in (_span(arr.positions, e) for e in g.sorted_edges))
    return spine, arcs


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit_dot(spine_labels: list[str], arcs) -> str:
    lines = [
        "graph arrangement {",
        "  layout=neato",
        "  splines=curved",
        "  node [shape=circle fixedsize=true width=0.4]",
    ]
    for i, label in enumerate(spine_labels):
        lines.append(f"  {_quote(label)} [pos=\"{i},0!\"]")
    for _, _, la, lb in arcs:
        lines.append(f"  {_quote(la)} -- {_quote(lb)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# TeX's special characters as text-mode commands that print them.
_TEX_SPECIALS = str.maketrans({
    "\\": r"\textbackslash{}", "{": r"\{", "}": r"\}", "$": r"\$", "&": r"\&",
    "#": r"\#", "^": r"\^{}", "_": r"\_", "%": r"\%", "~": r"\textasciitilde{}",
})


def _emit_tikz(spine_labels: list[str], arcs) -> str:
    lines = [r"\begin{tikzpicture}[every node/.style={circle,draw,inner sep=2pt}]"]
    for i, label in enumerate(spine_labels):
        lines.append(rf"  \node (p{i + 1}) at ({i},0) {{{label.translate(_TEX_SPECIALS)}}};")
    for lo, hi, _, _ in arcs:
        height = f"{0.6 * (hi - lo):.1f}"
        lines.append(
            rf"  \draw (p{lo}) .. controls +(0,{height}) and +(0,{height}) .. (p{hi});"
        )
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _emit_svg(spine_labels: list[str], arcs) -> str:
    step, radius, margin = 60, 12, 30
    n = len(spine_labels)
    max_span = max((hi - lo for lo, hi, _, _ in arcs), default=0)
    arc_room = max_span * 24 + 10
    width = 2 * margin + step * max(n - 1, 0)
    height = arc_room + 2 * radius + margin
    base = arc_room + radius

    def x(p: int) -> int:
        return margin + (p - 1) * step

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for lo, hi, _, _ in arcs:
        rise = (hi - lo) * 24
        mid = (x(lo) + x(hi)) // 2
        lines.append(
            f'  <path d="M {x(lo)} {base} Q {mid} {base - 2 * rise} {x(hi)} {base}" '
            'fill="none" stroke="black"/>'
        )
    for i, label in enumerate(spine_labels):
        cx = x(i + 1)
        lines.append(
            f'  <circle cx="{cx}" cy="{base}" r="{radius}" fill="white" stroke="black"/>'
        )
        lines.append(
            f'  <text x="{cx}" y="{base + 4}" text-anchor="middle" '
            f'font-size="12">{_escape(label)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_arc_diagram(g: Graph, arr: Arrangement, format: str,
                     labels: Iterable[str] | None = None) -> str:
    """Render the arrangement as an arc diagram in DOT, TikZ or SVG.

    Repeated labels raise ValidationError: DOT names each node by its label.
    """
    spine_labels, arcs = _spine(g, arr, labels)
    if format == "dot":
        return _emit_dot(spine_labels, arcs)
    if format == "tikz":
        return _emit_tikz(spine_labels, arcs)
    if format == "svg":
        return _emit_svg(spine_labels, arcs)
    raise ValidationError(f"unknown diagram format {format!r}; expected one of {FORMATS}")
