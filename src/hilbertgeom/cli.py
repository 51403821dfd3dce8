"""Batch command-line interface.

All results go to stdout as a single JSON object with sorted keys; human
diagnostics go to stderr.  Exit codes: 0 success, 1 domain error (points
outside their required region, invalid Busemann data, out-of-range sizes),
2 parse failure (malformed rationals, JSON, polytope files, or arguments).
Every refusal is one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Each handler imports the modules it runs, so a fresh process loads only those.
from .geometry import (ConstructionError, DomainError, HPolytope, ParseError, classify_point,
                       cone_from_polytope, format_rational, interior_point, lift_to_cone, parse_point,
                       parse_rational)

if TYPE_CHECKING:
    from .horoboundary import BusemannPoint


def _decode(text: str, what: str):
    """The JSON value of `text`; `what` names the input in the refusal."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} nests JSON too deeply") from None


def _load_polytope(path: str) -> HPolytope:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read polytope file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"polytope file is not UTF-8: {exc}") from None
    data = _decode(text, "polytope file")
    try:
        dim = data["dim"]
        raw_facets = data["facets"]
        halfspaces = []
        for entry in raw_facets:
            if not isinstance(entry["normal"], list):
                raise ParseError("polytope facet normal must be a list of rationals")
            normal = [parse_rational(c) for c in entry["normal"]]
            offset = parse_rational(entry["offset"])
            halfspaces.append((normal, offset))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"polytope file missing or malformed field: {exc}") from None
    try:
        return HPolytope(dim, halfspaces)
    except ConstructionError as exc:
        raise ParseError(f"polytope file does not define a valid polytope: {exc}") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_dist(args: argparse.Namespace) -> None:
    from .metrics import hilbert_cone, hilbert_cross_ratio

    polytope = _load_polytope(args.polytope)
    x = parse_point(args.x, polytope.dim)
    y = parse_point(args.y, polytope.dim)
    values = []
    for method in [args.method] if args.method else ["cross-ratio", "cone"]:
        if method == "cross-ratio":
            values.append(hilbert_cross_ratio(polytope, x, y))
        else:
            values.append(hilbert_cone(lift_to_cone(x), lift_to_cone(y), cone_from_polytope(polytope)))
    if values[0] != values[-1]:
        raise DomainError(f"cross-ratio and cone formulations disagree: {values[0]!r} vs {values[-1]!r}")
    _emit({"log_arg": format_rational(values[0].arg), "value": values[0].to_float()})


def _cmd_parts(args: argparse.Namespace) -> None:
    from .horoboundary import classify_part, enumerate_parts, part_dimension

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
    from .horoboundary import busemann_point

    spec = _decode(raw, "Busemann spec")
    try:
        x = parse_point(spec["x"], cone.ambient_dim)
        index = spec["cone_index"]
        p = parse_point(spec["p"], cone.ambient_dim)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"Busemann spec missing field: {exc}") from None
    if not isinstance(index, list) or not all(type(i) is int for i in index):
        raise ParseError("cone_index must be a list of integers")
    return busemann_point(cone, x, index, p, base)


def _cmd_detour(args: argparse.Namespace) -> None:
    from .horoboundary import detour_decomposition, detour_metric

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
    from .simplex import (POINT_GROUP_MAX_N, collineation_witness_failure, permutation_group_order,
                          point_group_elements)

    n = args.n
    if not 1 <= n <= POINT_GROUP_MAX_N:
        raise DomainError(f"n must be between 1 and {POINT_GROUP_MAX_N}")
    if args.orders:
        _emit(
            {
                "coll_point_group": permutation_group_order(n),
                "isom_point_group": len(point_group_elements(n)),
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
    from .tangent import hilbert_dimension, tangent_cone

    polytope = _load_polytope(args.polytope)
    cone = cone_from_polytope(polytope)
    z = lift_to_cone(parse_point(args.z, polytope.dim))
    tangent = tangent_cone(cone, z)
    hilbert_dim = hilbert_dimension(tangent)
    active = sorted(classify_point(cone, z).active)
    _emit({"active": active, "hilbert_dim": hilbert_dim, "lineality_dim": cone.ambient_dim - 1 - hilbert_dim})


class _Parser(argparse.ArgumentParser):
    """argparse's own errors as one stderr line, still with exit code 2."""

    def error(self, message: str):
        self.exit(2, f"parse error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbertgeom",
        description="Exact Hilbert-geometry computations on polyhedral domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *required: str) -> argparse.ArgumentParser:
        """Add the subcommand `name`, run by `func`, with each of `required` a required option."""
        cmd = sub.add_parser(name, help=help)
        for option in required:
            cmd.add_argument(f"--{option}", required=True)
        cmd.set_defaults(func=func)
        return cmd

    dist = command("dist", _cmd_dist, "Hilbert distance between two interior points", "polytope", "x", "y")
    dist.add_argument("--method", choices=["cross-ratio", "cone"])
    command("parts", _cmd_parts, "enumerate the parts of the horoboundary", "polytope")
    command("detour", _cmd_detour, "detour metric between two Busemann points", "polytope", "bp1", "bp2")
    isom = command("simplex-isom", _cmd_simplex_isom, "simplex isometry group data")
    isom.add_argument("--n", type=int, required=True)
    mode = isom.add_mutually_exclusive_group(required=True)
    for flag in ("--list-group", "--orders", "--witness"):
        mode.add_argument(flag, action="store_true")
    command("tangent", _cmd_tangent, "tangent cone at a boundary point", "polytope", "z")
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
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
