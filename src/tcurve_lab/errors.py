"""Exception hierarchy.

Input-shaped problems derive from ``InputError`` (CLI exit code 2),
violations of computational invariants from ``InvariantError`` (exit
code 1).  Everything shares the ``TCurveLabError`` base.
"""


class TCurveLabError(Exception):
    pass


class InputError(TCurveLabError):
    pass


class InvariantError(TCurveLabError):
    pass


def check(cond: bool, msg: str):
    """Raise ``InvariantError`` unless ``cond``; unlike ``assert`` it stays
    under ``python -O``."""
    if not cond:
        raise InvariantError(msg)


# --- lattice ---------------------------------------------------------------

class DegenerateSegment(InputError):
    pass


class TooFewVertices(InputError):
    pass


class NegativeCoordinate(InputError):
    pass


class CollinearConsecutiveEdges(InputError):
    pass


class NotSimple(InputError):
    pass


# --- surface ---------------------------------------------------------------

class DegenerateAtlas(InputError):
    """Raised when charts are requested on a surface with too few broken edges."""


# --- triangulation ---------------------------------------------------------

class MissingLatticeVertex(InputError):
    pass


class NonPrimitiveTriangle(InputError):
    pass


class Overlap(InputError):
    pass


class Gap(InputError):
    pass


class DanglingEdge(InputError):
    pass


class UnsupportedShape(InputError):
    pass


# --- curves ----------------------------------------------------------------

class IncompleteDistribution(InputError):
    pass


# --- filling ---------------------------------------------------------------

class InconsistentArcPairing(InvariantError):
    """The arc pairings at the two negative lifts of an edge disagree.

    Cannot happen for curves produced by this library; firing means an
    upstream bug.
    """


class NotTypeI(InputError):
    pass


# --- cli -------------------------------------------------------------------

class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


class CapExceeded(InputError):
    pass


class TooLarge(InputError):
    pass
