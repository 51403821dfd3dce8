"""The four benchmark workloads and their exactness gates.

A workload is built from a seed and the library module `hg`; it calls the
library only through attributes of `hg`, so a tracer that rebinds them, or
a test that passes a fake module, sees every call.  `setup` builds the
shared inputs.  `next_round` prepares the inputs of one round untimed and
returns its ops as (kind, thunk) pairs; a thunk runs one op and raises
`CheckFailed` when a result is not exactly right.  Rounds have a fixed mix
of op kinds, so a run of whole rounds has the same mix on every seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen
from gen import lift

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"
OUT = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """An op returned a result that failed its exactness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _gauge(facets, num, den):
    """M(num/den) as the largest facet ratio, computed here as an oracle."""
    return max(_dot(f.coeffs, num) / _dot(f.coeffs, den) for f in facets)


def _centroid(points):
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


class Workload:
    name = ""

    def __init__(self, hg, seed: int):
        self.hg = hg
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup(self) -> None:
        pass

    def next_round(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one round untimed; its results are still checked."""
        for _, thunk in self.next_round():
            thunk()


# ---------------------------------------------------------------------------


class QueryDomain:
    def __init__(self, hg, domain: gen.Domain, rng: random.Random):
        self.domain = domain
        self.polytope = hg.HPolytope(domain.dim, domain.halfspaces)
        check(tuple(self.polytope.vertices) == domain.vertices, f"{domain.name}: vertices differ")
        self.cone = hg.cone_from_polytope(self.polytope)
        base = lift(_centroid(domain.vertices))
        self.groups: dict[int, list] = {}
        for spec in gen.busemann_specs(rng, domain):
            active = hg.classify_point(self.cone, spec.x).active
            index = {min(active)} if spec.single else active
            point = hg.busemann_point(self.cone, spec.x, index, spec.p, base)
            self.groups.setdefault(spec.group, []).append(point)
        self.points = [p for group in self.groups.values() for p in group]


class Query(Workload):
    """Distances, horofunctions and detour metrics on four prebuilt domains."""

    name = "query"
    DISTANCES_PER_DOMAIN = 4

    def setup(self):
        domains = [gen.square(), gen.pentagon(), gen.cube(), gen.tangent_polytope3(self.rng, 8, "octa8")]
        self.domains = [QueryDomain(self.hg, d, self.rng) for d in domains]
        self.round_no = 0

    def next_round(self):
        rng, ops = self.rng, []
        large = self.round_no % 2 == 1
        for qd in self.domains:
            for k in range(self.DISTANCES_PER_DOMAIN):
                big = (k % 2 == 1) != large
                x = gen.interior_point(rng, qd.domain, big)
                y = gen.interior_point(rng, qd.domain, big)
                ops.append((f"distance.{qd.domain.name}", self._distance(qd, x, y)))
            point = rng.choice(qd.points)
            w = lift(gen.interior_point(rng, qd.domain, large))
            ops.append((f"busemann_eval.{qd.domain.name}", self._busemann_eval(point, w)))
            groups = sorted(qd.groups)
            if self.round_no % 2 == 0:
                g, h = qd.groups[rng.choice(groups)]
                finite = True
            else:
                a, b = rng.sample(groups, 2)
                g, h = qd.groups[a][0], qd.groups[b][1]
                finite = False
            ops.append((f"detour.{qd.domain.name}", self._detour(g, h, finite)))
        self.round_no += 1
        return ops

    def _distance(self, qd, x, y):
        hg = self.hg

        def op():
            chord = hg.hilbert_cross_ratio(qd.polytope, x, y)
            cone = hg.hilbert_cone(lift(x), lift(y), qd.cone)
            check(chord == cone, f"{qd.domain.name}: cross-ratio {chord} != cone {cone}")
        return op

    def _busemann_eval(self, point, w):
        hg = self.hg

        def op():
            value = hg.busemann_eval(point, w)
            cone, funk = point.cone.facets, point.funk_cone.facets
            expected = (_gauge(cone, point.x, w) * _gauge(funk, w, point.p)
                        / (_gauge(cone, point.x, point.base) * _gauge(funk, point.base, point.p)))
            check(value.arg == expected, f"busemann_eval {value} != {expected}")
        return op

    def _detour(self, g, h, finite):
        hg = self.hg

        def op():
            delta = hg.detour_metric(g, h)
            parts = hg.detour_decomposition(g, h)
            if finite:
                check(parts is not None and not delta.is_infinite, "same-part detour is not finite")
                check(delta == parts[0] + parts[1], f"detour {delta} != {parts[0]} + {parts[1]}")
            else:
                check(parts is None and delta.is_infinite, "cross-part detour is finite")
        return op


# ---------------------------------------------------------------------------


class Construct(Workload):
    """Build a fresh domain per op: polytope, cone, parts, classification, Busemann points."""

    name = "construct"
    SHAPES = (("polygon", 5), ("polygon", 6), ("polygon", 7), ("polygon", 8),
              ("polytope3", 6), ("polytope3", 7), ("polytope3", 8))

    def setup(self):
        self.count = 0

    def _domain(self, kind, m):
        self.count += 1
        name = f"{kind}{m}-{self.count}"
        if kind == "polygon":
            return gen.tangent_polygon(self.rng, m, name)
        return gen.tangent_polytope3(self.rng, m, name)

    def warm_up(self):
        self._op(self._domain("polygon", 5))()

    def next_round(self):
        return [(f"{kind}{m}", self._op(self._domain(kind, m))) for kind, m in self.SHAPES]

    def _op(self, domain):
        hg = self.hg
        expected = gen.census(domain)
        base = lift(_centroid(domain.vertices))
        n = domain.dim

        def op():
            polytope = hg.HPolytope(domain.dim, domain.halfspaces)
            check(tuple(polytope.vertices) == domain.vertices, f"{domain.name}: vertices differ")
            cone = hg.cone_from_polytope(polytope)
            check(cone.num_facets == domain.num_facets, f"{domain.name}: facet dropped")
            vertex_of = {hg.classify_point(cone, lift(v)).active: v for v in domain.vertices}
            parts = hg.enumerate_parts(cone)
            kinds = {"vertex": 0, "facet": 0, "other": 0}
            maximal, full = set(), set()
            for part in parts:
                kind = hg.classify_part(cone, part)
                dim = hg.part_dimension(cone, part)
                a, i = len(part.face_active), len(part.cone_index)
                # Simple polytope: the active normals are independent, so the
                # part dimension is (n - 1) - (|A| - |I|).
                want = "vertex" if a == n and i == a else "facet" if a == 1 else "other"
                check(kind == want, f"{domain.name}: part {sorted(part.face_active)} is {kind}, not {want}")
                check(dim == n - 1 - (a - i), f"{domain.name}: part dimension {dim}")
                kinds[kind] += 1
                if dim == n - 1:
                    maximal.add(part)
                if i == a:
                    full.add(part)
                if kind == "vertex":
                    x = lift(vertex_of[part.face_active])
                    point = hg.busemann_point(cone, x, part.cone_index, base, base)
                    check(point.x_active == part.face_active and point.funk_index == part.cone_index,
                          f"{domain.name}: Busemann point left its part")
            check(kinds["vertex"] == expected["vertex"], f"{domain.name}: {kinds['vertex']} vertex parts")
            check(kinds["facet"] == expected["facet"], f"{domain.name}: {kinds['facet']} facet parts")
            check(len(parts) == expected["total"], f"{domain.name}: {len(parts)} parts")
            check(maximal == full, f"{domain.name}: maximal parts are not the full tangent parts")
            if n == 2:
                check(len(parts) == 4 * domain.num_facets, f"{domain.name}: m-gon without 4m parts")
                named = {p for p in parts if len(p.cone_index) == len(p.face_active)}
                check(maximal == named, f"{domain.name}: maximal parts are not vertex and facet parts")
        return op


# ---------------------------------------------------------------------------


class Isometry(Workload):
    """Cold simplex point groups, their orders, and exact isometry checks."""

    name = "isometry"
    ORDERS = {3: 48, 4: 240, 5: 1440}
    PAIRS = 4

    def warm_up(self):
        n = min(self.ORDERS)
        pairs = [(self.hg.vclass(a), self.hg.vclass(b)) for a, b in gen.vclass_pairs(self.rng, n, self.PAIRS)]
        self._op(n, pairs)()

    def next_round(self):
        ops = []
        for n in self.ORDERS:
            pairs = [(self.hg.vclass(a), self.hg.vclass(b)) for a, b in gen.vclass_pairs(self.rng, n, self.PAIRS)]
            ops.append((f"n{n}", self._op(n, pairs)))
        return ops

    def _op(self, n, pairs):
        hg = self.hg

        def op():
            elements = hg.point_group_elements(n)
            check(len(elements) == self.ORDERS[n], f"n={n}: group order {len(elements)}")
            check(len(elements) == 2 * hg.permutation_group_order(n), f"n={n}: collineation index is not two")
            for v, w in pairs:
                before = hg.var_dist(v, w)
                for g in elements:
                    after = hg.var_dist(hg.apply_isometry(g, v), hg.apply_isometry(g, w))
                    check(after == before, f"n={n}: isometry changed a distance")
        return op


# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def golden_cases() -> list:
    """The CLI golden cases: (subcommand, argv, expected stdout bytes)."""
    square, simplex = str(DATA / "square.json"), str(DATA / "simplex2.json")
    cases = [
        ("dist_square.json", ["dist", "--polytope", square, "--x", "1/2,1/2", "--y", "3/4,1/2"]),
        ("dist_simplex2.json", ["dist", "--polytope", simplex, "--x", "1/4,1/4", "--y", "1/2,1/4"]),
        ("parts_square.json", ["parts", "--polytope", square]),
        ("parts_simplex2.json", ["parts", "--polytope", simplex]),
        ("detour_square.json", ["detour", "--polytope", square,
                                "--bp1", '{"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"}',
                                "--bp2", '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}']),
        ("detour_simplex2.json", ["detour", "--polytope", simplex,
                                  "--bp1", '{"x": "1,0,1", "cone_index": [0,1], "p": "1/4,1/4,1"}',
                                  "--bp2", '{"x": "0,1,1", "cone_index": [0,2], "p": "1/4,1/4,1"}']),
        ("isom_orders_n2.json", ["simplex-isom", "--n", "2", "--orders"]),
        ("isom_witness_n2.json", ["simplex-isom", "--n", "2", "--witness"]),
        ("isom_group_n2.json", ["simplex-isom", "--n", "2", "--list-group"]),
        ("tangent_square.json", ["tangent", "--polytope", square, "--z", "0,1/2"]),
        ("tangent_simplex2.json", ["tangent", "--polytope", simplex, "--z", "0,0"]),
    ]
    return [(argv[0], argv, (GOLDEN / name).read_bytes()) for name, argv in cases]


def _rat(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _point(p) -> str:
    return ",".join(_rat(c) for c in p)


class Cli(Workload):
    """`python -m hilbertgeom` as a fresh child process per op."""

    name = "cli"
    POLYGON_SIDES = 5

    def __init__(self, hg, seed):
        super().__init__(hg, seed)
        self.env = _child_env()
        # A traced run replaces these to trace inside each child.
        self.command = [sys.executable, "-m", "hilbertgeom"]
        self.after_child = None

    def setup(self):
        hg = self.hg
        self.golden = golden_cases()
        self.domain = gen.tangent_polygon(self.rng, self.POLYGON_SIDES, "cli-polygon")
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"cli-polygon-{self.seed}.json"
        payload = {"dim": 2, "facets": [{"normal": [_rat(c) for c in a], "offset": _rat(b)}
                                        for a, b in self.domain.halfspaces]}
        self.path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        self.polytope = hg.HPolytope(2, self.domain.halfspaces)
        self.cone = hg.cone_from_polytope(self.polytope)
        self.base = lift(hg.interior_point(self.polytope))
        parts = hg.enumerate_parts(self.cone)
        items, counts = [], {"facet": 0, "other": 0, "vertex": 0}
        for part in parts:
            kind = hg.classify_part(self.cone, part)
            counts[kind] += 1
            items.append({"classification": kind, "cone_index": sorted(part.cone_index),
                          "dimension": hg.part_dimension(self.cone, part),
                          "face_active": sorted(part.face_active)})
        self.parts_expected = {"counts": counts, "parts": items}
        self.round_no = 0

    def warm_up(self):
        self._golden_op(*self.golden[0])()

    def next_round(self):
        hg, rng, domain = self.hg, self.rng, self.domain
        large = self.round_no % 2 == 1
        self.round_no += 1
        ops = [(sub, self._golden_op(sub, argv, want)) for sub, argv, want in self.golden]
        path = str(self.path)

        # `--x=...` keeps a leading minus sign from reading as an option.
        x, y = (gen.interior_point(rng, domain, large) for _ in range(2))
        d = hg.hilbert_cross_ratio(self.polytope, x, y)
        ops.append(("dist", self._json_op(
            ["dist", "--polytope", path, f"--x={_point(x)}", f"--y={_point(y)}"],
            {"log_arg": _rat(d.arg), "value": d.to_float()})))

        ops.append(("parts", self._json_op(["parts", "--polytope", path], self.parts_expected)))

        k = rng.randrange(domain.num_facets)
        on_facet = domain.facet_vertices(k)
        specs = []
        for _ in range(2):
            bx = lift(gen.relative_interior(rng, on_facet))
            bp = lift(gen.interior_point(rng, domain, False))
            index = sorted(hg.classify_point(self.cone, bx).active)
            specs.append((bx, index, bp))
        g, h = (hg.busemann_point(self.cone, bx, index, bp, self.base) for bx, index, bp in specs)
        delta = hg.detour_metric(g, h)
        face_part, cone_part = hg.detour_decomposition(g, h)
        bps = [json.dumps({"x": _point(bx), "cone_index": index, "p": _point(bp)}) for bx, index, bp in specs]
        ops.append(("detour", self._json_op(
            ["detour", "--polytope", path, "--bp1", bps[0], "--bp2", bps[1]],
            {"decomposition": [_rat(face_part.arg), _rat(cone_part.arg)], "finite": True,
             "log_arg": _rat(delta.arg)})))

        z = rng.choice([domain.vertices[rng.randrange(len(domain.vertices))],
                        gen.relative_interior(rng, on_facet)])
        tangent = hg.tangent_cone(self.cone, lift(z))
        ops.append(("tangent", self._json_op(
            ["tangent", "--polytope", path, f"--z={_point(z)}"],
            {"active": sorted(hg.classify_point(self.cone, lift(z)).active),
             "hilbert_dim": hg.hilbert_dimension(tangent),
             "lineality_dim": len(tangent.lineality_basis)})))
        return ops

    def _run(self, argv):
        result = subprocess.run(self.command + argv, capture_output=True, env=self.env,
                                cwd=str(ROOT), timeout=120)
        if self.after_child is not None:
            self.after_child()
        check(result.returncode == 0, f"{argv[0]} exited {result.returncode}: {result.stderr[-300:]!r}")
        return result.stdout

    def _golden_op(self, sub, argv, want):
        def op():
            got = self._run(argv)
            check(got == want, f"{sub}: stdout differs from the golden file")
        return op

    def _json_op(self, argv, want):
        def op():
            got = json.loads(self._run(argv))
            check(got == want, f"{argv[0]}: {got} != {want}")
        return op


WORKLOADS = {w.name: w for w in (Query, Construct, Isometry, Cli)}
