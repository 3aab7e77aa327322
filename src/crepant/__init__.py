"""Crepant: quivers with superpotentials, crystal counting, and the vertex."""

from .compare import ChamberCertificate, ComparisonSheet, chamber_certificate
from .crystal import (BoxFamily, PyramidFamily, configuration_to_module,
                      configurations, enumerate_configurations, family_for,
                      ncdt_series)
from .errors import CrepantError
from .mckay import (AbelianAction, mckay_quiver, mckay_superpotential,
                    parse_action)
from .quiver import (Arrow, CyclicWord, FramedQuiver, Path, PathAlgebraElement,
                     Quiver, Superpotential, c3_quiver, compose,
                     conifold_quiver, cyclic_derivative, frame, laufer_quiver,
                     local_p2_quiver, quiver_from_json, quiver_to_json,
                     relations_from_potential)
from .reps import (MonomialRepresentation, StabilityReport, check_relations,
                   framed_theta, is_cyclic, is_semistable, rep_from_json,
                   rep_to_json, subrep_dimension_vectors, theta_infinity)
from .roots import (CartanMatrix, Root, WallReport, cartan_matrix,
                    positive_roots, walls_between)
from .series import FormalSeries, product_series
from .toric import (DualWeb, LatticePolygon, UnitTriangulation, dual_web,
                    flop_adjacent, unit_triangulations)
from .vertex import (GVTable, GWSeries, Partition, TSeries, gv_extract,
                     gw_partition_function, schur_principal)

__all__ = [name for name in dir() if not name.startswith("_")]
