"""The closed surface glued from four reflected copies of a polygon.

Each copy sigma_{a,b}(x,y) = ((-1)^a x, (-1)^b y) of the polygon is a
"quadrant".  A boundary point lying on an edge of segment parity (c,d)
is identified across quadrants differing by the unique nonzero offset
(a',b') with <(a',b'),(c,d)> = 0, which is the swap (d,c).  Odd-parity
vertices collapse all four copies to a single point.  The result is a
closed surface; its topology is controlled entirely by the broken-edge
structure of the polygon.
"""

from functools import cached_property
from typing import NamedTuple

from .errors import DegenerateAtlas, check
from .geometry import segment_lattice_points
from .lattice import Parity, Point, Polygon

Quadrant = tuple[int, int]

QUADRANTS: tuple[Quadrant, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))
A0: Mat2 = ((0, 1), (1, 0))
A1: Mat2 = ((0, 1), (1, 1))


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return (((m[0][0] * n[0][0] + m[0][1] * n[1][0]) & 1,
             (m[0][0] * n[0][1] + m[0][1] * n[1][1]) & 1),
            ((m[1][0] * n[0][0] + m[1][1] * n[1][0]) & 1,
             (m[1][0] * n[0][1] + m[1][1] * n[1][1]) & 1))


def vec_mat(v: Quadrant, m: Mat2) -> Quadrant:
    """Row vector times matrix over Z2."""
    return ((v[0] * m[0][0] + v[1] * m[1][0]) & 1,
            (v[0] * m[0][1] + v[1] * m[1][1]) & 1)


def columns_matrix(col1: Parity, col2: Parity) -> Mat2:
    return ((col1[0], col2[0]), (col1[1], col2[1]))


def reflect(q: Quadrant, p: Point) -> Point:
    return (-p[0] if q[0] else p[0], -p[1] if q[1] else p[1])


def quad_add(a: Quadrant, b: Quadrant) -> Quadrant:
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) & 1)


def glue_offset(seg_par: Parity) -> Quadrant:
    """The unique nonzero (a,b) with <(a,b), seg_par> = 0: the swap."""
    check(seg_par != (0, 0), "a primitive segment has nonzero parity")
    return (seg_par[1], seg_par[0])


class Chart(NamedTuple):
    """Canonical chart around the lift of an odd vertex.

    The two axes are the lifted broken edges ending and starting at the
    center; the matrix columns are their segment parities.  A quadrant
    labelled (c,d) sits in chart-quadrant (c,d) @ matrix.
    """
    index: int
    center: Point
    in_edge: int
    out_edge: int
    matrix: Mat2

    @property
    def quadrant_map(self) -> dict:
        return {q: vec_mat(q, self.matrix) for q in QUADRANTS}


class Atlas(NamedTuple):
    charts: tuple[Chart, ...]
    eta: tuple[int, ...]            # one bit per broken edge
    steps: tuple[Mat2, ...]         # steps[k]: M_k = M_{k-1} * steps[k]

    @property
    def r(self) -> int:
        return len(self.charts)

    def gluing_matrix(self, i: int, j: int) -> Mat2:
        """The matrix G with M_j = M_i * G, walking forward from i to j.

        ``gluing_matrix(i, i)`` is the identity; a full loop of r steps
        multiplies back to the identity as well.
        """
        g = IDENTITY
        for k in range(i + 1, i + 1 + (j - i) % self.r):
            g = mat_mul(g, self.steps[k % self.r])
        return g

    def cyclic_product(self) -> Mat2:
        g = IDENTITY
        for k in range(1, self.r + 1):
            g = mat_mul(g, self.steps[k % self.r])
        return g


class _Topology(NamedTuple):
    components: int
    orientable: bool
    genus: int | None
    crosscaps: int | None
    euler: int
    name: str


class TopologyClass(_Topology):
    """A closed surface; a connected one is checked against chi."""
    __slots__ = ()

    def __new__(cls, components, orientable, genus, crosscaps, euler, name):
        if components == 1:
            if orientable:
                check(euler == 2 - 2 * genus, "chi = 2 - 2g")
            else:
                check(euler == 2 - crosscaps, "chi = 2 - k")
        return super().__new__(cls, components, orientable, genus, crosscaps,
                               euler, name)

    @classmethod
    def _make(cls, iterable):  # checked; ``_replace`` builds through it
        return cls(*iterable)


def _surface_name(orientable: bool, genus, crosscaps) -> str:
    if orientable:
        return {0: "sphere", 1: "torus"}.get(genus, f"orientable genus-{genus} surface")
    return {1: "projective plane", 2: "Klein bottle"}.get(
        crosscaps, f"nonorientable surface with {crosscaps} crosscaps")


class AmbientSurface:
    """Four glued quadrant copies of a polygon, represented combinatorially.

    Points of the surface are orbits of (quadrant, lattice point) pairs
    under the boundary identification; no mesh is ever embedded.
    """

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        self.broken_edges = polygon.broken_edges

    @property
    def r(self) -> int:
        return self.polygon.r

    # ------------------------------------------------------------------
    # boundary identification

    @cached_property
    def boundary_offset(self) -> dict:
        """Map boundary lattice point -> gluing offset, or None at the
        odd vertices where all four copies merge."""
        out = {}
        odd = {self.polygon.vertices[i]
               for i in self.polygon.odd_vertex_indices}
        for edge, par in zip(self.polygon.edges, self.polygon.edge_segment_parities):
            off = glue_offset(par)
            for p in segment_lattice_points(*edge):
                if p in odd:
                    out[p] = None
                elif p in out:
                    check(out[p] == off, "even vertex joins equal-parity edges")
                else:
                    out[p] = off
        return out

    @cached_property
    def boundary_segment_offset(self) -> dict:
        """Map primitive boundary segment (as a sorted point pair) to its
        gluing offset."""
        out = {}
        for b in self.broken_edges:
            off = glue_offset(b.segment_parity)
            for p, q in b.primitive_segments:
                out[tuple(sorted((p, q)))] = off
        return out

    def point_class(self, q: Quadrant, p: Point) -> tuple:
        """Canonical orbit of the copy of p in quadrant q."""
        if p not in self.boundary_offset:
            return ((q, p),)
        off = self.boundary_offset[p]
        if off is None:
            return tuple((qq, p) for qq in QUADRANTS)
        return tuple(sorted(((q, p), (quad_add(q, off), p))))

    def preimage_classes(self, p: Point) -> list:
        """Distinct surface points over p; lengths 4 / 2 / 1 for interior
        points, broken-edge interiors and odd vertices respectively."""
        seen = []
        for q in QUADRANTS:
            c = self.point_class(q, p)
            if c not in seen:
                seen.append(c)
        return seen

    def lifted_broken_edge(self, j: int):
        """The lift of broken edge j: a cyclic point-class sequence (a
        circle, doubly covering the broken edge)."""
        if self.r < 2:
            raise DegenerateAtlas("broken-edge lifts are circles only for r >= 2")
        b = self.broken_edges[j]
        pts = [b.primitive_segments[0][0]]
        for _, qpt in b.primitive_segments:
            pts.append(qpt)
        off = glue_offset(b.segment_parity)
        other = next(q for q in QUADRANTS
                     if q not in ((0, 0), off))
        fwd = [self.point_class((0, 0), p) for p in pts]
        back = [self.point_class(other, p) for p in pts[-2:0:-1]]
        return tuple(fwd + back)

    # ------------------------------------------------------------------
    # canonical atlas

    @cached_property
    def eta(self) -> tuple[int, ...]:
        return tuple(1 if b.is_odd else 0 for b in self.broken_edges)

    def canonical_atlas(self) -> Atlas:
        if self.r < 3:
            raise DegenerateAtlas(
                f"canonical charts need at least 3 broken edges, have {self.r}")
        r = self.r
        pars = [b.segment_parity for b in self.broken_edges]
        charts = []
        for k in range(r):
            # adjacent broken edges meet at an odd vertex, so their
            # parities are distinct (and never zero): M_k is invertible
            check(pars[(k - 1) % r] != pars[k],
                  "adjacent broken edges have distinct parities")
            m = columns_matrix(pars[(k - 1) % r], pars[k])
            center = self.broken_edges[k].start
            charts.append(Chart(k, center, (k - 1) % r, k, m))
        # chart k is glued to chart k-1 across broken edge k-1
        steps = tuple(A1 if self.eta[(k - 1) % r] else A0 for k in range(r))
        return Atlas(tuple(charts), self.eta, steps)

    def tubular_type(self, j: int) -> str:
        """'annulus' or 'moebius' for the lift of broken edge j."""
        if self.r < 2:
            raise DegenerateAtlas("tubular neighborhoods need r >= 2")
        return "moebius" if self.broken_edges[j].is_odd else "annulus"

    def homology_basis(self) -> tuple[int, ...]:
        """Indices of the broken edges whose lifts form a 1-homology basis."""
        if self.r < 3:
            raise DegenerateAtlas("homology basis needs r >= 3")
        return tuple(range(2, self.r))

    def homology_basis_circles(self) -> tuple:
        """The r - 2 basis circles themselves, as point-class cycles."""
        return tuple(self.lifted_broken_edge(j) for j in self.homology_basis())

    # ------------------------------------------------------------------
    # topology

    def classify_topology(self) -> TopologyClass:
        r = self.r
        if r == 1:
            return TopologyClass(2, True, 0, None, 4, "two spheres")
        values = {b.segment_parity for b in self.broken_edges}
        if len(values) == 2:
            check(r % 2 == 0, "orientable forces an even broken-edge count")
            genus = r // 2 - 1
            return TopologyClass(1, True, genus, None, 2 - 2 * genus,
                                 _surface_name(True, genus, None))
        cc = r - 2
        return TopologyClass(1, False, None, cc, 2 - cc,
                             _surface_name(False, None, cc))

    def __repr__(self):
        return f"AmbientSurface({self.polygon!r})"


def build_ambient_surface(polygon: Polygon) -> AmbientSurface:
    return AmbientSurface(polygon)
