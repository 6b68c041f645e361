"""The package's public export list and its modules' imports."""

import ast
from pathlib import Path

import quasigenus

SOURCES = Path(quasigenus.__file__).resolve().parent


def test_every_exported_name_resolves():
    for name in quasigenus.__all__:
        assert hasattr(quasigenus, name), name


def test_exports_are_unique():
    assert len(quasigenus.__all__) == len(set(quasigenus.__all__))


def test_removed_overlap_is_not_exported():
    for name in ("p1_square_coefficients", "Envelope",
                 "InterpolationError", "InterpolationConsistencyError"):
        assert name not in quasigenus.__all__
        assert not hasattr(quasigenus, name)


def test_retired_sampler_is_gone():
    from quasigenus import errors, exactalg, genus
    assert not hasattr(exactalg, "laurent_interpolate")
    for name in ("InterpolationError", "InterpolationConsistencyError"):
        assert not hasattr(errors, name)
    for name in ("_exponent_windows", "_sample_points", "laurent_interpolate",
                 "fixed_point_contribution", "_term_value"):
        assert not hasattr(genus, name)
    for name in ("fixed_point_contribution", "_term_value"):
        assert name not in quasigenus.__all__
        assert not hasattr(quasigenus, name)


def test_retired_list_passes_are_gone():
    from quasigenus import exactalg, genus
    for name in ("binomial_passes", "divmod_binomial", "mul_binomial"):
        assert not hasattr(exactalg, name)
        assert not hasattr(genus, name)
    assert not hasattr(genus, "_aligned_sum")


def test_retired_twist_plumbing_is_gone():
    from quasigenus import genus
    for name in ("_strip_character_shift", "_degree_one_coordinates",
                 "_vertex_term"):
        assert not hasattr(genus, name)


def test_retired_validation_walks_are_gone():
    from quasigenus import linalg, polytope
    assert not hasattr(linalg, "perm_parity")
    for name in ("_check_simplicity", "edges", "_vertex_index"):
        assert not hasattr(polytope.SimplePolytope, name)
    assert "_signs" not in polytope.QuasitoricManifold.__slots__


def _unused_imports(tree):
    """Names bound by the module's top-level imports that nothing in the
    module reads, by bare name or as the head of an attribute chain."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "__init__.py":
            found = _unused_imports(ast.parse(path.read_text()))
            if found:
                unused[path.name] = found
    assert not unused


def test_all_pairs_products_are_gone():
    # every product is built from multiplication by degree-one classes
    from quasigenus import cohomology, exactalg, genus
    assert not hasattr(exactalg, "TruncatedPolynomial")
    assert "TruncatedPolynomial" not in quasigenus.__all__
    assert not hasattr(quasigenus, "TruncatedPolynomial")
    for name in ("_add_product", "_power_table"):
        assert not hasattr(genus, name)
    assert not hasattr(cohomology.GradedStructure, "add_product")


def test_one_exact_value_rule():
    # an exact value is an int when integral and a Fraction otherwise, and
    # exactalg._exact is the one place that says so
    from quasigenus import cohomology, exactalg, linalg, polytope
    assert not hasattr(cohomology, "_rational")
    assert not hasattr(linalg, "_quotient")
    assert not hasattr(linalg, "is_primitive")
    assert not hasattr(exactalg, "_coeff_zero")
    for name in ("constant", "one", "__pow__"):
        assert not hasattr(exactalg.QSeries, name)
    assert not hasattr(polytope.QuasitoricManifold, "vertex_sign")
    written = [path.name for path in sorted(SOURCES.glob("*.py"))
               if "denominator == 1" in path.read_text()]
    assert written == ["exactalg.py"]


def test_class_arithmetic_is_gone():
    # every ring identity is checked on integer lines through
    # GradedRing.product; a CohomologyClass only holds what describe prints
    from quasigenus import cohomology, genus
    for name in ("_operand", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__neg__", "part"):
        assert name not in vars(cohomology.CohomologyClass), name
    for name in ("_class", "constant", "zero", "one", "combination",
                 "integrate", "line_class"):
        assert not hasattr(cohomology.GradedRing, name), name
    for name in ("_facet_classes", "facet_class", "spinc_c1"):
        assert not hasattr(cohomology.FaceRing, name), name
    assert not hasattr(cohomology.SyntheticConnectedSumRing, "generator")
    assert not hasattr(genus, "is_spin")
    assert "is_spin" not in quasigenus.__all__
    assert not hasattr(quasigenus, "is_spin")


def test_localization_reads_only_fixed_point_records():
    # each fixed point carries its oriented sign, so localization reads no
    # orientation and no polytope; the pairing oracle lives in the tests
    from quasigenus import genus
    assert not hasattr(genus, "localization_integral")
    assert "localization_integral" not in quasigenus.__all__
    assert not hasattr(quasigenus, "localization_integral")
    text = (SOURCES / "genus.py").read_text()
    for name in ("orientation_signs", "manifold.polytope"):
        assert name not in text, name
    assert "orientation_signs" not in (SOURCES / "theorems.py").read_text()
