"""polycanon: exact lattice-point semigroups of convex lattice polytopes.

Build polytopes from vertices or inequalities, enumerate dilate lattice
points, reduce graded interior points to their minimal degree, list the
irreducible generators of the interior ideal, triangulate, and verify the
structural theorems the package is built on — all in exact integer and
rational arithmetic.
"""

from .cone import GradedCone, GradedPoint, ReductionWitness, cone_over, \
    cone_slice
from .families import (
    example1,
    example2,
    family,
    reeve_simplex,
    unit_cube,
    unit_simplex,
)
from .polytope import FacetForm, Polytope
from .semigroup import (
    BoundClass,
    GeneratorReport,
    degree_bound,
    degree_one_points,
    full_generators,
    ideal_contains,
    idp_check,
    irreducible_generators,
    reduced_degree,
    reduced_degree_oracle,
    semigroup_contains,
)
from .simplex import (
    BarycentricCoords,
    SimplexConeSlicer,
    barycentric,
    is_empty_simplex,
    is_unimodular,
    normalized_volume,
    unit_box_decomposition,
)
from .triangulation import (
    DecompositionResult,
    Triangulation,
    full_lattice_triangulation,
    interior_faces,
    interior_respecting_triangulation,
    placing_triangulation,
    total_normalized_volume,
    verify_decomposition,
)
from .checks import check_polytope, default_corpus, run_suite

__version__ = "1.0.0"

__all__ = [
    "BarycentricCoords",
    "BoundClass",
    "DecompositionResult",
    "FacetForm",
    "GeneratorReport",
    "GradedCone",
    "GradedPoint",
    "Polytope",
    "ReductionWitness",
    "SimplexConeSlicer",
    "Triangulation",
    "barycentric",
    "check_polytope",
    "cone_over",
    "cone_slice",
    "default_corpus",
    "degree_bound",
    "degree_one_points",
    "example1",
    "example2",
    "family",
    "full_generators",
    "full_lattice_triangulation",
    "ideal_contains",
    "idp_check",
    "interior_faces",
    "interior_respecting_triangulation",
    "irreducible_generators",
    "is_empty_simplex",
    "is_unimodular",
    "normalized_volume",
    "placing_triangulation",
    "reduced_degree",
    "reduced_degree_oracle",
    "reeve_simplex",
    "run_suite",
    "semigroup_contains",
    "total_normalized_volume",
    "unit_box_decomposition",
    "unit_cube",
    "unit_simplex",
    "verify_decomposition",
    "__version__",
]
