"""Patchwork curves on glued lattice-polygon surfaces.

Build the closed surface glued from four reflected copies of a lattice
polygon, lift a signed primitive triangulation, extract the piecewise
linear curve cut out by the negative dual edges, classify everything,
and verify the interior-lattice-point bound on component counts through
the associated ribbon surface.
"""

from .lattice import (BrokenEdge, LatticeCensus, Polygon,
                      broken_edge_decomposition, is_odd, lattice_census,
                      pairing, parity_sum, point_parity, segment_parity,
                      validate_polygon)
from .surface import (AmbientSurface, Atlas, Chart, TopologyClass,
                      build_ambient_surface)
from .triangulation import (Lifts, PrimitiveTriangulation,
                            generate_grid_triangulation, incidence_graphs,
                            validate_primitive_triangulation)
from .tcurve import (Component, ComponentClass, CurveCensus, TCurve,
                     classify_components, degree_parity_check,
                     extend_signs, extract_curve, harnack_distribution,
                     ovals_inside, predicted_harnack_census, theta_action,
                     transform_curve, verify_harnack_census)
from .filling import (CappedSurface, FillingClass, HarnackVerdict,
                      OrientedCurve, TFilling, build_filling,
                      classify_filling, harnack_check, orient_curve)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
