"""Deterministic SVG rendering of the four-quadrant picture.

All coordinates are integers: lattice units are drawn at 30 px, so the
sixth-integral barycenter and midpoint coordinates land on multiples of
5 px.  Rendering the same problem twice yields identical bytes.
"""

from operator import add, itemgetter

from .tcurve import TCurve

UNIT = 30          # px per lattice unit
SUB = UNIT // 6    # px per sixth

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # per quadrant, as ``reflect``

FILLS = ("white", "black")  # of a lattice point, by whether its sign is +

PALETTE = ("#c62828", "#1565c0", "#2e7d32", "#6a1b9a", "#ef6c00",
           "#00838f", "#ad1457", "#4e342e")


def render_svg(curve: TCurve) -> str:
    """The picture as SVG text, in four sections: triangulation edges,
    quadrant outlines, one group per curve component, lattice point signs.
    The lines of each section are joined as soon as it is done, so the line
    strings of the whole picture are never held at once.  (Joining each
    component's group on its own would leave hundreds of mid-sized strings
    to the C allocator, which holds more memory than the lines did.)"""
    polygon, tri, tab = curve.surface.polygon, curve.tri, curve.tables
    pts = polygon.lattice_points
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    span_x, span_y = max(xs), max(ys)
    pad = UNIT
    w = 2 * span_x * UNIT + 2 * pad
    h = 2 * span_y * UNIT + 2 * pad
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{-span_x * UNIT - pad} {-span_y * UNIT - pad} {w} {h}">\n'
        f'<rect x="{-span_x * UNIT - pad}" y="{-span_y * UNIT - pad}" '
        f'width="{w}" height="{h}" fill="white"/>',
    ]
    # pixel coordinates in quadrant (0,0); quadrant q multiplies them by
    # the signs SIGNS[q], which the y axis turns downward
    X, Y = [UNIT * x for x, _ in pts], [-UNIT * y for _, y in pts]

    # triangulation edges, all four copies: per quadrant, the text of each
    # point as the first and as the second end of a line
    firsts = itemgetter(*[i for i, _ in tri.edge_ends])  # 3 or more: a tuple
    seconds = itemgetter(*[j for _, j in tri.edge_ends])
    lines = ['<g stroke="#c8c8c8" stroke-width="1">']
    for sx, sy in SIGNS:
        lines += map(add,
                     firsts([f'<line x1="{sx * x}" y1="{sy * y}" '
                             for x, y in zip(X, Y)]),
                     seconds([f'x2="{sx * x}" y2="{sy * y}"/>'
                              for x, y in zip(X, Y)]))
    lines.append('</g>')
    parts.append("\n".join(lines))

    # quadrant outlines
    lines = ['<g fill="none" stroke="#555555" stroke-width="2">']
    for sx, sy in SIGNS:
        corners = " ".join(f"{sx * UNIT * x},{-sy * UNIT * y}"
                           for x, y in polygon.vertices)
        lines.append(f'<polygon points="{corners}"/>')
    lines.append('</g>')
    parts.append("\n".join(lines))

    # curve cycles: bold polylines through barycenters and midpoints.  A
    # visit runs from the barycenter of its lifted triangle to the midpoint
    # that the next visit enters by, and that visit on from there, each in
    # the frame of its own quadrant.  In sixths of a unit, a midpoint is 3
    # times the sum of its edge's ends, a barycenter that sum over its
    # triangle's three edges
    ex = [pts[i][0] + pts[j][0] for i, j in tri.edge_ends]
    ey = [pts[i][1] + pts[j][1] for i, j in tri.edge_ends]
    mx, my = [3 * SUB * x for x in ex], [-3 * SUB * y for y in ey]
    slots, T3 = tab.slots, 3 * tab.T
    by_t = list(zip(slots[::3], slots[1::3], slots[2::3]))
    bx = [SUB * (ex[a] + ex[b] + ex[c]) for a, b, c in by_t]
    by = [-SUB * (ey[a] + ey[b] + ey[c]) for a, b, c in by_t]
    lines = []
    for idx, walk in enumerate(curve.components):
        color = PALETTE[idx % len(PALETTE)]
        lines.append(f'<g fill="none" stroke="{color}" stroke-width="4" '
                     'stroke-linecap="round">')
        for u, u_next in zip(walk, walk[1:] + walk[:1]):
            (sx, sy), t = SIGNS[u // T3], u % T3 // 3
            (nx, ny), s = SIGNS[u_next // T3], u_next % T3
            e, t_next = slots[s], s // 3
            lines.append(f'<line x1="{sx * bx[t]}" y1="{sy * by[t]}" '
                         f'x2="{sx * mx[e]}" y2="{sy * my[e]}"/>\n'
                         f'<line x1="{nx * mx[e]}" y1="{ny * my[e]}" '
                         f'x2="{nx * bx[t_next]}" y2="{ny * by[t_next]}"/>')
        lines.append('</g>')
    parts.append("\n".join(lines))

    # lattice point signs, read off the curve's per-copy table: filled
    # disc is +, open circle is -
    plus, V = curve.copy_signs, len(pts)
    lines = ['<g stroke="black" stroke-width="1">']
    for q, (sx, sy) in enumerate(SIGNS):
        lines += [f'<circle cx="{sx * x}" cy="{sy * y}" r="4" '
                  f'fill="{FILLS[up]}"/>'
                  for x, y, up in zip(X, Y, plus[q * V:q * V + V])]
    lines += ('</g>', '</svg>', '')
    parts.append("\n".join(lines))
    return "\n".join(parts)
