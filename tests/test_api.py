"""The public API of the package: a change to it has to be deliberate."""

import polycanon

PUBLIC = {
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
}


def test_public_names_are_pinned_and_resolve():
    assert len(polycanon.__all__) == len(set(polycanon.__all__))
    assert set(polycanon.__all__) == PUBLIC
    for name in polycanon.__all__:
        assert getattr(polycanon, name) is not None, name
