"""Patchwork curves on glued lattice-polygon surfaces.

Build the closed surface glued from four reflected copies of a lattice
polygon, lift a signed primitive triangulation, extract the piecewise
linear curve cut out by the negative dual edges, classify everything,
and verify the interior-lattice-point bound on component counts through
the associated ribbon surface.

The package re-exports the functions of README's quick start; everything
else is imported from its module.
"""

from .lattice import validate_polygon
from .surface import build_ambient_surface
from .triangulation import generate_grid_triangulation
from .tcurve import extract_curve, harnack_distribution
from .filling import build_filling, classify_filling

__all__ = ["validate_polygon", "build_ambient_surface",
           "generate_grid_triangulation", "harnack_distribution",
           "extract_curve", "build_filling", "classify_filling"]
__version__ = "0.1.0"
