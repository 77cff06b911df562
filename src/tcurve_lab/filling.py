"""The T-filling: a ribbon surface glued from one thick-Y per triangle.

Each downstairs triangle carries a 3-valent fat vertex (thick-Y) whose
prongs follow the counterclockwise order of the triangle's edges.  At an
interior edge the two end-segments are identified by x -> -x or x -> x
according to which arcs of the curve run consecutively at the two
negative lifts of that edge ("without" resp. "with" a twist).  At a
boundary edge the projected curve makes a U-turn, realized by folding
the end-segment onto itself by x -> -x.  Boundary circles of the result
correspond one-to-one to components of the curve; capping them with
disks gives a closed surface whose Euler characteristic proves the
interior-point bound on the number of components.  The spins of the
thick-Ys, found once per filling, decide orientability and orient a
type-I curve.
"""

from typing import NamedTuple

from .errors import NotTypeI, check
from .surface import TopologyClass
from .sweep import thick_y_spins
from .tcurve import TCurve


class TFilling:
    """Ribbon graph of the curve: twist bits and folds over G(Pi), read
    off the strand kernel run of the curve (``TCurve.trace``).

    ``spins`` holds, per triangle, 1 when its thick-Y's planar orientation
    is reversed relative to triangle 0's in a coherent orientation of the
    filling, and is None when the filling is not orientable.
    """

    def __init__(self, curve: TCurve):
        self.tri = tri = curve.tri
        run = curve.trace
        self.twists = {tri.edges[e]: bool(run.tw[e])
                       for e, _, _ in curve.tables.interior}
        self.folds = tri.boundary_edges
        self.boundary_count = run.d
        self.spins = thick_y_spins(curve.tables, run.tw)
        self.orientable = self.spins is not None

    @property
    def chi(self) -> int:
        """Euler characteristic: the filling retracts onto G(Pi)."""
        return self.tri.E - 2 * self.tri.T

    def __repr__(self):
        return (f"TFilling(T={self.tri.T}, chi={self.chi}, "
                f"D={self.boundary_count})")


def build_filling(curve: TCurve) -> TFilling:
    return TFilling(curve)


# ---------------------------------------------------------------------------
# classification

def classify_filling(filling: TFilling) -> TopologyClass:
    """The capped surface, connected because G(Pi) is (``incidence_graphs``
    checks it): chi is the filling's plus D, which the strand kernel
    counted after checking both Euler characteristic computations and
    D <= i + 1; orientability comes from the thick-Y spins.  The curve is
    of type I exactly when it is orientable."""
    return TopologyClass.connected(filling.chi + filling.boundary_count,
                                   filling.orientable)


class HarnackVerdict(NamedTuple):
    boundary_count: int
    interior_points: int
    bound_holds: bool
    maximal: bool
    identity_holds: bool


def harnack_check(filling: TFilling) -> HarnackVerdict:
    tri = filling.tri
    d = filling.boundary_count
    i = tri.V - tri.L
    chi_sigma = filling.chi + d
    # D = i + 1 - (2 - chi(Sigma))
    identity = d == i + 1 - (2 - chi_sigma)
    return HarnackVerdict(d, i, d <= i + 1, d == i + 1, identity)


# ---------------------------------------------------------------------------
# orientation of type-I curves

def orient_curve(curve: TCurve, filling: TFilling,
                 flip: bool = False) -> bytes:
    """A coherent orientation of a type-I curve: byte k is 1 when it runs
    component k along its walk (``TCurve.components[k]``), else 0.

    Choose compatible orientations of the thick-Ys, take the induced
    boundary orientation of each circle, push it to the projected cycles
    and lift back edge by edge: the copy of a downstairs segment directed
    p -> q in quadrant (a,b) is directed sigma_{a,b} p -> sigma_{a,b} q.
    Of the two global choices, ``flip=False`` keeps the planar orientation
    of the thick-Y of triangle 0 (the first of ``tri.triangles``);
    ``flip=True`` reverses every component.  At each visit of a walk, its
    shadow (``oracles.walk_states``) has the thick-Y's planar orientation
    on its left when the walk turns to the next prong; the circle runs
    along the walk when that turn bit XOR the spin XOR ``flip`` is 1.
    """
    spins = filling.spins
    if spins is None:
        raise NotTypeI("the filling is not orientable")
    tab = curve.tables
    across, nxt, T3 = tab.across, tab.nxt, 3 * tab.T
    out = bytearray()
    for walk in curve.components:
        along = {(across[u_next] == nxt[u]) ^ spins[u % T3 // 3]
                 for u, u_next in zip(walk, walk[1:] + walk[:1])}
        check(len(along) == 1, "induced orientation must be constant along a circle")
        out.append(along.pop() ^ flip)
    return bytes(out)
