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
    center: Point
    matrix: Mat2


class Atlas(NamedTuple):
    charts: tuple[Chart, ...]
    steps: tuple[Mat2, ...]         # steps[k]: M_k = M_{k-1} * steps[k]


class _Topology(NamedTuple):
    components: int
    orientable: bool
    genus: int | None
    crosscaps: int | None
    euler: int
    name: str


class TopologyClass(_Topology):
    """A closed surface: two spheres, or a connected one, which is checked
    against chi and built from (chi, orientability) by ``connected``."""
    __slots__ = ()

    def __new__(cls, components, orientable, genus, crosscaps, euler, name):
        if components == 1:
            used, unused = (genus, crosscaps) if orientable else (crosscaps, genus)
            check(type(used) is int and unused is None,
                  "a connected surface has a genus if orientable, else crosscaps")
            if orientable:
                check(genus >= 0 and euler == 2 - 2 * genus, "chi = 2 - 2g, g >= 0")
            else:
                check(crosscaps >= 1 and euler == 2 - crosscaps, "chi = 2 - k, k >= 1")
        return super().__new__(cls, components, orientable, genus, crosscaps,
                               euler, name)

    @classmethod
    def _make(cls, iterable):  # checked; ``_replace`` builds through it
        return cls(*iterable)

    @classmethod
    def connected(cls, euler: int, orientable: bool) -> "TopologyClass":
        """The connected closed surface of Euler characteristic ``euler``;
        InvariantError when there is none: chi odd for an orientable one,
        or chi > 2, or chi = 2 for a nonorientable one."""
        if orientable:
            g = (2 - euler) // 2
            name = {0: "sphere", 1: "torus"}.get(g, f"orientable genus-{g} surface")
            return cls(1, True, g, None, euler, name)
        k = 2 - euler
        name = {1: "projective plane", 2: "Klein bottle"}.get(
            k, f"nonorientable surface with {k} crosscaps")
        return cls(1, False, None, k, euler, name)


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
            charts.append(Chart(center, m))
        # chart k is glued to chart k-1 across broken edge k-1
        steps = tuple(A1 if self.eta[(k - 1) % r] else A0 for k in range(r))
        return Atlas(tuple(charts), steps)

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
        if self.r == 1:
            return TopologyClass(2, True, 0, None, 4, "two spheres")
        # orientable when the broken edges take two segment parities
        values = {b.segment_parity for b in self.broken_edges}
        return TopologyClass.connected(4 - self.r, len(values) == 2)

    def __repr__(self):
        return f"AmbientSurface({self.polygon!r})"


def build_ambient_surface(polygon: Polygon) -> AmbientSurface:
    return AmbientSurface(polygon)
