"""Batch command-line interface.

All results go to stdout as a single JSON object with sorted keys; human
diagnostics go to stderr.  Exit codes: 0 success, 1 domain error (points
outside their required region, invalid Busemann data, out-of-range sizes),
2 parse failure (malformed rationals, JSON, or polytope files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import (
    ConstructionError,
    DomainError,
    HPolytope,
    ParseError,
    classify_point,
    cone_from_polytope,
    format_rational,
    interior_point,
    lift_to_cone,
    parse_point,
    parse_rational,
)
from .horoboundary import (
    BusemannPoint,
    busemann_point,
    classify_part,
    detour_decomposition,
    detour_metric,
    enumerate_parts,
    part_dimension,
)
from .metrics import LogValue, hilbert_cone, hilbert_cross_ratio
from .simplex import (
    collineation_witness_failure,
    permutation_group_order,
    point_group_closure,
    point_group_elements,
)
from .tangent import hilbert_dimension, tangent_cone


def _load_polytope(path: str) -> HPolytope:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read polytope file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"polytope file is not valid JSON: {exc}") from None
    try:
        dim = data["dim"]
        raw_facets = data["facets"]
        halfspaces = []
        for entry in raw_facets:
            normal = [parse_rational(c) for c in entry["normal"]]
            offset = parse_rational(entry["offset"])
            halfspaces.append((normal, offset))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"polytope file missing or malformed field: {exc}") from None
    if not isinstance(dim, int):
        raise ParseError("polytope dim must be an integer")
    try:
        return HPolytope(dim, halfspaces)
    except ConstructionError as exc:
        raise ParseError(f"polytope file does not define a valid polytope: {exc}") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _log_value_fields(value: LogValue) -> dict:
    return {"log_arg": format_rational(value.arg), "value": value.to_float()}


def _cmd_dist(args: argparse.Namespace) -> None:
    polytope = _load_polytope(args.polytope)
    x = parse_point(args.x, polytope.dim)
    y = parse_point(args.y, polytope.dim)
    results: dict[str, LogValue] = {}
    methods = [args.method] if args.method else ["cross-ratio", "cone"]
    for method in methods:
        if method == "cross-ratio":
            results[method] = hilbert_cross_ratio(polytope, x, y)
        else:
            cone = cone_from_polytope(polytope)
            results[method] = hilbert_cone(lift_to_cone(x), lift_to_cone(y), cone)
    values = list(results.values())
    if len(values) == 2 and values[0] != values[1]:
        sys.stderr.write("cross-ratio and cone formulations disagree\n")
        raise SystemExit(1)
    _emit(_log_value_fields(values[0]))


def _cmd_parts(args: argparse.Namespace) -> None:
    polytope = _load_polytope(args.polytope)
    cone = cone_from_polytope(polytope)
    parts = enumerate_parts(cone)
    items = []
    counts = {"facet": 0, "other": 0, "vertex": 0}
    for part in parts:
        kind = classify_part(cone, part)
        counts[kind] += 1
        items.append(
            {
                "classification": kind,
                "cone_index": sorted(part.cone_index),
                "dimension": part_dimension(cone, part),
                "face_active": sorted(part.face_active),
            }
        )
    _emit({"counts": counts, "parts": items})


def _parse_busemann_spec(raw: str, cone, base) -> BusemannPoint:
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"Busemann spec is not valid JSON: {exc}") from None
    try:
        x = parse_point(spec["x"], cone.ambient_dim)
        index = spec["cone_index"]
        p = parse_point(spec["p"], cone.ambient_dim)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"Busemann spec missing field: {exc}") from None
    if not isinstance(index, list) or not all(isinstance(i, int) for i in index):
        raise ParseError("cone_index must be a list of integers")
    return busemann_point(cone, x, index, p, base)


def _cmd_detour(args: argparse.Namespace) -> None:
    polytope = _load_polytope(args.polytope)
    cone = cone_from_polytope(polytope)
    base = lift_to_cone(interior_point(polytope))
    g = _parse_busemann_spec(args.bp1, cone, base)
    h = _parse_busemann_spec(args.bp2, cone, base)
    delta = detour_metric(g, h)
    if delta.is_infinite:
        _emit({"finite": False, "log_arg": "inf"})
        return
    face_part, cone_part = detour_decomposition(g, h)
    _emit(
        {
            "decomposition": [format_rational(face_part.arg), format_rational(cone_part.arg)],
            "finite": True,
            "log_arg": format_rational(delta.arg),
        }
    )


def _cmd_simplex_isom(args: argparse.Namespace) -> None:
    n = args.n
    if not 1 <= n <= 6:
        raise DomainError("n must be between 1 and 6")
    if args.orders:
        _emit(
            {
                "coll_point_group": permutation_group_order(n),
                "isom_point_group": point_group_closure(n),
            }
        )
    elif args.list_group:
        elements = [
            {"flip": e.flip, "perm": list(e.permutation)} for e in point_group_elements(n)
        ]
        _emit({"elements": elements, "order": len(elements)})
    else:
        witness = collineation_witness_failure(n)
        if witness is None:
            _emit({"witness_exists": False})
            return
        _emit(
            {
                "columns": list(witness.columns),
                "determinant": format_rational(witness.determinant),
                "images": [[format_rational(c) for c in q] for q in witness.images],
                "points": [[format_rational(c) for c in p] for p in witness.points],
                "witness_exists": True,
            }
        )


def _cmd_tangent(args: argparse.Namespace) -> None:
    polytope = _load_polytope(args.polytope)
    cone = cone_from_polytope(polytope)
    z = lift_to_cone(parse_point(args.z, polytope.dim))
    location = classify_point(cone, z)
    if location.is_interior:
        raise DomainError("point is interior; the tangent cone is only formed at the boundary")
    tangent = tangent_cone(cone, z)
    _emit(
        {
            "active": sorted(location.active),
            "hilbert_dim": hilbert_dimension(tangent),
            "lineality_dim": len(tangent.lineality_basis),
        }
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertgeom",
        description="Exact Hilbert-geometry computations on polyhedral domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="Hilbert distance between two interior points")
    dist.add_argument("--polytope", required=True)
    dist.add_argument("--x", required=True)
    dist.add_argument("--y", required=True)
    dist.add_argument("--method", choices=["cross-ratio", "cone"])
    dist.set_defaults(func=_cmd_dist)

    parts = sub.add_parser("parts", help="enumerate the parts of the horoboundary")
    parts.add_argument("--polytope", required=True)
    parts.set_defaults(func=_cmd_parts)

    detour = sub.add_parser("detour", help="detour metric between two Busemann points")
    detour.add_argument("--polytope", required=True)
    detour.add_argument("--bp1", required=True)
    detour.add_argument("--bp2", required=True)
    detour.set_defaults(func=_cmd_detour)

    isom = sub.add_parser("simplex-isom", help="simplex isometry group data")
    isom.add_argument("--n", type=int, required=True)
    mode = isom.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list-group", action="store_true")
    mode.add_argument("--orders", action="store_true")
    mode.add_argument("--witness", action="store_true")
    isom.set_defaults(func=_cmd_simplex_isom)

    tangent = sub.add_parser("tangent", help="tangent cone at a boundary point")
    tangent.add_argument("--polytope", required=True)
    tangent.add_argument("--z", required=True)
    tangent.set_defaults(func=_cmd_tangent)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (DomainError, ConstructionError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
