"""Deterministic SVG rendering of the four-quadrant picture.

All coordinates are integers: lattice units are drawn at 30 px, so the
sixth-integral barycenter and midpoint coordinates land on multiples of
5 px.  Rendering the same problem twice yields identical bytes.
"""

from .surface import QUADRANTS, reflect
from .tcurve import TCurve

UNIT = 30          # px per lattice unit
SUB = UNIT // 6    # px per sixth

PALETTE = ("#c62828", "#1565c0", "#2e7d32", "#6a1b9a", "#ef6c00",
           "#00838f", "#ad1457", "#4e342e")


def _pt(x6: int, y6: int) -> str:
    return f"{x6 * SUB},{-y6 * SUB}"


def render_svg(curve: TCurve) -> str:
    polygon = curve.surface.polygon
    tri = curve.tri
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    span_x, span_y = max(xs), max(ys)
    pad = UNIT
    w = 2 * span_x * UNIT + 2 * pad
    h = 2 * span_y * UNIT + 2 * pad
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{-span_x * UNIT - pad} {-span_y * UNIT - pad} {w} {h}">',
        f'<rect x="{-span_x * UNIT - pad}" y="{-span_y * UNIT - pad}" '
        f'width="{w}" height="{h}" fill="white"/>',
    ]

    # triangulation edges, all four copies
    out.append('<g stroke="#c8c8c8" stroke-width="1">')
    for q in QUADRANTS:
        for e in tri.edges:
            a = reflect(q, (6 * e[0][0], 6 * e[0][1]))
            b = reflect(q, (6 * e[1][0], 6 * e[1][1]))
            out.append(f'<line x1="{a[0] * SUB}" y1="{-a[1] * SUB}" '
                       f'x2="{b[0] * SUB}" y2="{-b[1] * SUB}"/>')
    out.append('</g>')

    # quadrant outlines
    out.append('<g fill="none" stroke="#555555" stroke-width="2">')
    for q in QUADRANTS:
        pts = " ".join(_pt(*reflect(q, (6 * x, 6 * y)))
                       for x, y in polygon.vertices)
        out.append(f'<polygon points="{pts}"/>')
    out.append('</g>')

    # curve cycles: bold polylines through barycenters and midpoints
    for idx, comp in enumerate(curve.components):
        color = PALETTE[idx % len(PALETTE)]
        out.append(f'<g fill="none" stroke="{color}" stroke-width="4" '
                   'stroke-linecap="round">')
        nodes = comp.nodes
        for i in range(len(nodes)):
            a, b = nodes[i], nodes[(i + 1) % len(nodes)]
            # both endpoints drawn in the frame of the barycenter's quadrant
            q = a[1] if a[0] == "b" else b[1]
            ca, cb = node_coords6(q, a), node_coords6(q, b)
            out.append(f'<line x1="{ca[0] * SUB}" y1="{-ca[1] * SUB}" '
                       f'x2="{cb[0] * SUB}" y2="{-cb[1] * SUB}"/>')
        out.append('</g>')

    # lattice point signs: filled disc is +, open circle is -
    out.append('<g stroke="black" stroke-width="1">')
    for q in QUADRANTS:
        for p in polygon.lattice_points:
            v = curve.ext.value(q, p)
            x, y = reflect(q, (6 * p[0], 6 * p[1]))
            fill = "black" if v > 0 else "white"
            out.append(f'<circle cx="{x * SUB}" cy="{-y * SUB}" r="4" '
                       f'fill="{fill}"/>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def node_coords6(q, node) -> tuple:
    """Planar coordinates of a G(S) node scaled by 6, in the frame of
    quadrant q (a boundary midpoint's label may name the other side)."""
    if node[0] == "b":
        (a, b), (c, d), (e, f) = node[2]
        return reflect(q, (2 * (a + c + e), 2 * (b + d + f)))
    (a, b), (c, d) = node[2]
    return reflect(q, (3 * (a + c), 3 * (b + d)))
