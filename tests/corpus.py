"""The frozen exact corpus: every construct answer on seeded inputs, as JSON text.

For each domain (fixed polytopes, with the non-simple octahedron and the
two pyramids, and seeded polygons and simple 3-polytopes) it records the
polytope's integer rows and vertices, the cone's integer rows in their
canonical order, the face lattice (active set and span dimension, in
order) and every part with its kind and dimension.  For seeded facet lists
and halfspace systems, among them unbounded, empty and lower-dimensional
ones, it records the integer rows (and the vertices, or the lattice) of
what is built, or the class and message of the refusal.

`tests/data/corpus.json` is this module's output; `test_corpus.py`
rebuilds it and compares the text byte for byte.  Regenerate it only when
an output is meant to change, and say which and why in `CHANGES.md`:

    PYTHONPATH=src:tests python tests/corpus.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

from hilbertgeom import (
    HilbertGeometryError,
    HPolytope,
    PolyCone,
    classify_part,
    cone_from_polytope,
    enumerate_parts,
    part_dimension,
)
from hilbertgeom.geometry import _face_lattice_cached

from helpers import (
    facet_lists,
    halfspace_systems,
    interval,
    octahedron,
    pentagon,
    pentagonal_pyramid,
    simplex2,
    square_pyramid,
    tangent_polygon,
    tangent_polytope3,
    unit_cube,
    unit_square,
)

PATH = Path(__file__).resolve().parent / "data" / "corpus.json"


def _q(values) -> list[str]:
    return [str(F(v)) for v in values]


def _lattice(cone) -> list:
    return [[sorted(active), span] for active, span in _face_lattice_cached(cone).items()]


def domains() -> list[tuple[str, HPolytope]]:
    out = [
        ("square", unit_square()),
        ("simplex2", simplex2()),
        ("interval", interval(0, 4)),
        ("pentagon", pentagon()),
        ("cube", unit_cube()),
        ("octahedron", octahedron()),
        ("square-pyramid", square_pyramid()),
        ("pentagonal-pyramid", pentagonal_pyramid()),
    ]
    for m in range(3, 13):
        for k in range(2):
            out.append((f"polygon{m}-{k}", tangent_polygon(random.Random(f"corpus-polygon-{m}-{k}"), m)))
    for m in range(5, 11):
        for k in range(2):
            out.append((f"polytope{m}-{k}", tangent_polytope3(random.Random(f"corpus-polytope-{m}-{k}"), m)))
    return out


def domain_record(name: str, polytope: HPolytope) -> dict:
    cone = cone_from_polytope(polytope)
    parts = [
        [sorted(part.face_active), sorted(part.cone_index), classify_part(cone, part), part_dimension(cone, part)]
        for part in enumerate_parts(cone)
    ]
    return {
        "name": name,
        "rows": [list(row) for row in polytope._rows],
        "vertices": [_q(v) for v in polytope.vertices],
        "cone_rows": [list(row) for row in cone._rows],
        "lattice": _lattice(cone),
        "parts": parts,
    }


def _refusal(error: HilbertGeometryError) -> list[str]:
    return [type(error).__name__, str(error)]


def cone_record(facets: list, dim: int) -> dict:
    record = {"dim": dim, "facets": [_q(f) for f in facets]}
    try:
        cone = PolyCone(facets, dim)
    except HilbertGeometryError as error:
        record["refused"] = _refusal(error)
        return record
    record["rows"] = [list(row) for row in cone._rows]
    record["lineality"] = len(cone.lineality_basis)
    record["lattice"] = _lattice(cone)
    return record


def system_record(dim: int, halfspaces: list) -> dict:
    record = {"dim": dim, "halfspaces": [[_q(a), str(F(b))] for a, b in halfspaces]}
    try:
        polytope = HPolytope(dim, halfspaces)
    except HilbertGeometryError as error:
        record["refused"] = _refusal(error)
        return record
    record["rows"] = [list(row) for row in polytope._rows]
    record["vertices"] = [_q(v) for v in polytope.vertices]
    return record


def build() -> str:
    """The corpus as JSON text: one record per line, in three sections."""
    sections = {
        "domains": [domain_record(name, polytope) for name, polytope in domains()],
        "cones": [cone_record(*entry) for entry in facet_lists(random.Random("corpus-cones"), 300)],
        "systems": [system_record(*entry) for entry in halfspace_systems(random.Random("corpus-systems"), 300)],
    }
    body = ",\n".join(
        f'"{name}":[\n' + ",\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n]"
        for name, records in sections.items()
    )
    return "{" + body + "}\n"


if __name__ == "__main__":
    PATH.write_text(build())
