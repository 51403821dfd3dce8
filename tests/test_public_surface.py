"""The package's public names, and the ones the benchmark relies on.

The benchmark under `bench/` calls the library through `hg.<name>` and
wraps functions by module and name.  Both files are read here as source,
never imported or changed, so removing a name they need fails this suite.
"""

import ast
import importlib
import inspect
import sys
import types

import hilbertgeom

from helpers import BENCH

# The submodules stay reachable as attributes but are not exported names.
SUBMODULES = ["geometry", "horoboundary", "linalg", "metrics", "simplex", "tangent"]

PUBLIC = [
    "BOUNDARY", "BusemannPoint", "CollinearityWitness", "ConstructionError", "DomainError",
    "EXTERIOR", "FACET_PART", "Face", "HPolytope", "HilbertGeometryError", "INTERIOR",
    "LinearFunctional", "LinearMap", "LogValue", "OTHER_PART", "ParseError", "PartId",
    "PointLocation", "PolyCone", "SimplexIsometry", "TangentFamilyEntry", "VClass",
    "VERTEX_PART", "Vector", "almost_geodesic_check", "apply_isometry", "busemann_eval",
    "busemann_from_line", "busemann_point", "canonical_index_set", "classify_part",
    "classify_point", "collineation_witness_failure", "compose", "cone_from_polytope",
    "cone_subset", "detour_cost", "detour_decomposition", "detour_metric", "enumerate_parts",
    "exp_chart", "exp_chart_float", "face_contains", "face_hilbert", "face_lattice_active_sets",
    "face_m_ratio", "face_of", "format_rational", "funk", "gromov_product",
    "hilbert_cone", "hilbert_cross_ratio", "hilbert_dimension",
    "horolimit_residual", "identity_isometry", "interior_point", "inverse",
    "is_metric_preserving", "j_eval", "lift_to_cone", "log_chart", "m_ratio",
    "parse_point", "parse_rational", "part_dimension", "part_of",
    "permutation_group_elements", "permutation_group_order", "point_group_elements",
    "positive_orthant", "reciprocal_map", "reverse_funk", "simplex_collineation",
    "subcone", "tangent_cone", "tangent_family", "var_ball_vertices", "var_dist",
    "var_norm", "vclass", "vector",
]


def _parse(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _assigned_literal(tree, target):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {target}")


def test_all_is_pinned():
    assert sorted(hilbertgeom.__all__) == PUBLIC


def test_dir_lists_every_public_name():
    assert set(hilbertgeom.__all__) <= set(dir(hilbertgeom))


def test_submodules_are_attributes_not_exports():
    for name in SUBMODULES:
        assert getattr(hilbertgeom, name) is importlib.import_module(f"hilbertgeom.{name}")
    namespace = {}
    exec("from hilbertgeom import *", namespace)
    assert not set(SUBMODULES) & set(namespace)


def test_benchmark_workload_names_resolve():
    """Every `hg.<name>` and `self.hg.<name>` in the workloads is public."""
    used = set()
    for node in ast.walk(_parse("workloads.py")):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", None) == "hg" or getattr(owner, "attr", None) == "hg":
                used.add(node.attr)
    assert {"HPolytope", "busemann_point", "vclass", "permutation_group_order"} <= used
    assert sorted(used - set(hilbertgeom.__all__)) == []


def test_tracer_functions_resolve_in_their_modules():
    tree = _parse("tracer.py")
    wrapped = dict(_assigned_literal(tree, "FUNCTIONS"))
    for layer, classes in _assigned_literal(tree, "CONSTRUCTORS").items():
        wrapped[layer] = (*wrapped.get(layer, ()), *classes)
    assert "face_m_ratio" in wrapped["metrics"] and "rref" in wrapped["linalg"]
    for layer, names in wrapped.items():
        module = importlib.import_module(f"hilbertgeom.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"hilbertgeom.{layer} lacks {missing}"


def test_every_public_function_and_class_has_a_docstring():
    """Read from the source, so that it holds under `python -OO` too."""
    trees = {}
    missing = []
    for name in hilbertgeom.__all__:
        obj = getattr(hilbertgeom, name)
        if isinstance(obj, types.GenericAlias) or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = obj.__module__
        if module not in trees:
            trees[module] = ast.parse(inspect.getsource(sys.modules[module]))
        node = next(n for n in trees[module].body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
        if not (ast.get_docstring(node) or "").strip():
            missing.append(name)
    assert missing == []
