"""Exact-arithmetic indices of quasitoric manifolds.

A quasitoric manifold is described combinatorially: a simple polytope,
a characteristic matrix whose vertex minors are unimodular, and an
all-odd integer vector fixing the stable complex-line twist.  From that
data the package computes twisted Dirac indices (Euler characteristic,
signature, elliptic and Witten genera, and arbitrary sums of line
bundles) as exact rational q-series, by two independent routes that are
checked against each other: fixed-point localization by exact division
in Z[t] and face-ring integration.
"""

from .errors import (BundleSpinError, DegenerateCircleError, InputError,
                     ParityError, PreconditionError, PropertyViolationError,
                     RankHypothesisError, RingShapeError, SpinObstructionError,
                     WellDefinednessError, WorkbenchError)
from .exactalg import HalfLaurent, QSeries
from .polytope import (QuasitoricManifold, SimplePolytope, connected_sum,
                       cube, enumerate_characteristic_matrices, polygon,
                       polytope_product, simplex, vertex_cut)
from .cohomology import FaceRing, build_face_ring, facet_class_decomposition
from .genus import (BundleSpec, CircleSubgroup, EquivariantIndex,
                    choose_generic_circles, cohomological_elliptic_genus,
                    cohomological_index, cohomological_witten_genus,
                    elliptic_genus, equivariant_elliptic_genus,
                    equivariant_index, equivariant_witten_genus,
                    euler_characteristic, index, signature, spin_gamma,
                    spin_obstruction, witten_genus)
from .theorems import (EquivariantDegree4Class, SymmetryBoundInput,
                       anomaly_coefficient, check_twist_classes,
                       construct_twist_bundles, find_circle,
                       finiteness_census, max_dim_rank_ratio,
                       rank_ratio_table_check, symmetry_bounds,
                       synthetic_inflated_instance)
from .manifest import (Manifest, parse_manifest, serialize_manifest)
from .models import (cp2_connected_sum, projective_space, sphere_product,
                     sphere_product_spin)

__version__ = "0.1.0"

__all__ = [
    "BundleSpec",
    "BundleSpinError",
    "CircleSubgroup",
    "DegenerateCircleError",
    "EquivariantDegree4Class",
    "EquivariantIndex",
    "FaceRing",
    "HalfLaurent",
    "InputError",
    "Manifest",
    "ParityError",
    "PreconditionError",
    "PropertyViolationError",
    "QSeries",
    "QuasitoricManifold",
    "RankHypothesisError",
    "RingShapeError",
    "SimplePolytope",
    "SpinObstructionError",
    "SymmetryBoundInput",
    "WellDefinednessError",
    "WorkbenchError",
    "anomaly_coefficient",
    "build_face_ring",
    "check_twist_classes",
    "choose_generic_circles",
    "cohomological_elliptic_genus",
    "cohomological_index",
    "cohomological_witten_genus",
    "connected_sum",
    "construct_twist_bundles",
    "cp2_connected_sum",
    "cube",
    "elliptic_genus",
    "enumerate_characteristic_matrices",
    "equivariant_elliptic_genus",
    "equivariant_index",
    "equivariant_witten_genus",
    "euler_characteristic",
    "facet_class_decomposition",
    "find_circle",
    "finiteness_census",
    "index",
    "max_dim_rank_ratio",
    "parse_manifest",
    "polygon",
    "polytope_product",
    "projective_space",
    "rank_ratio_table_check",
    "serialize_manifest",
    "signature",
    "simplex",
    "sphere_product",
    "sphere_product_spin",
    "spin_gamma",
    "spin_obstruction",
    "symmetry_bounds",
    "synthetic_inflated_instance",
    "vertex_cut",
    "witten_genus",
]
