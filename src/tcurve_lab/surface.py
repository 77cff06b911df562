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
from .lattice import Parity, Point, Polygon

Quadrant = tuple[int, int]

QUADRANTS: tuple[Quadrant, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

Mat2 = tuple[tuple[int, int], tuple[int, int]]

A0: Mat2 = ((0, 1), (1, 0))
A1: Mat2 = ((0, 1), (1, 1))


def columns_matrix(col1: Parity, col2: Parity) -> Mat2:
    return ((col1[0], col2[0]), (col1[1], col2[1]))


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


class Atlas(NamedTuple):
    charts: tuple[Chart, ...]
    eta: tuple[int, ...]            # one bit per broken edge
    steps: tuple[Mat2, ...]         # steps[k]: M_k = M_{k-1} * steps[k]


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
