"""Tests of the benchmark itself: generator, exactness gate, tracer and census.

Run from the repository root:

    PYTHONPATH=src python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import random
import sys
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import hilbertgeom  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _draw(seed: int):
    rng = random.Random(seed)
    polygon = gen.tangent_polygon(rng, 7)
    polytope = gen.tangent_polytope3(rng, 7)
    points = [gen.interior_point(rng, polytope, large) for large in (False, True)]
    specs = gen.busemann_specs(rng, polygon)
    pairs = gen.vclass_pairs(rng, 4, 3)
    return polygon, polytope, points, specs, pairs


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(_draw(gen.DEFAULT_SEED), _draw(gen.DEFAULT_SEED))
        self.assertEqual(_draw(gen.HELDOUT_SEED), _draw(gen.HELDOUT_SEED))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(_draw(gen.DEFAULT_SEED), _draw(gen.HELDOUT_SEED))

    def test_workload_rounds_are_deterministic(self):
        def inputs(seed):
            w = workloads.Construct(hilbertgeom, seed)
            w.setup()
            return [w._domain(kind, m) for kind, m in w.SHAPES]
        self.assertEqual(inputs(3), inputs(3))

    def test_points_are_interior_with_requested_denominators(self):
        rng = random.Random(5)
        domain = gen.tangent_polytope3(rng, 8)
        for large in (False, True):
            point = gen.interior_point(rng, domain, large)
            self.assertTrue(domain.is_interior(point))
            dens = [c.denominator for c in point]
            if large:
                self.assertTrue(all(d.bit_length() > 30 for d in dens), dens)
            else:
                self.assertTrue(all(d <= gen.SMALL_DEN for d in dens))

    def test_generated_vertices_match_the_library(self):
        rng = random.Random(11)
        for domain in (gen.tangent_polygon(rng, 6), gen.tangent_polytope3(rng, 6)):
            polytope = hilbertgeom.HPolytope(domain.dim, domain.halfspaces)
            self.assertEqual(tuple(polytope.vertices), domain.vertices)


class CensusTest(unittest.TestCase):
    def test_m_gon_has_4m_parts(self):
        rng = random.Random(2)
        for m in range(3, 10):
            expected = gen.census(gen.tangent_polygon(rng, m))
            self.assertEqual(expected, {"vertex": m, "facet": m, "total": 4 * m})

    def test_simple_polytope_census(self):
        # F facets, 2F - 4 vertices, 3F - 6 edges: parts = F + 3E + 7V.
        rng = random.Random(4)
        for m in (5, 6, 7, 8):
            domain = gen.tangent_polytope3(rng, m)
            v, e = 2 * m - 4, 3 * m - 6
            self.assertEqual(gen.census(domain), {"vertex": v, "facet": m, "total": m + 3 * e + 7 * v})

    def test_census_matches_library_parts(self):
        domain = gen.tangent_polytope3(random.Random(8), 5)
        cone = hilbertgeom.cone_from_polytope(hilbertgeom.HPolytope(3, domain.halfspaces))
        self.assertEqual(len(hilbertgeom.enumerate_parts(cone)), gen.census(domain)["total"])


def _fake_library(**overrides):
    """A stand-in for hilbertgeom with some functions replaced."""
    fake = types.SimpleNamespace(**{name: getattr(hilbertgeom, name) for name in hilbertgeom.__all__})
    for name, fn in overrides.items():
        setattr(fake, name, fn)
    return fake


class GateTest(unittest.TestCase):
    def _loop(self, hg):
        workload = workloads.Query(hg, 1)
        workload.setup()
        return worker.timed_loop(workload, 0.0)

    def test_correct_library_passes(self):
        result = self._loop(hilbertgeom)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)

    def test_wrong_result_is_counted(self):
        def wrong_hilbert_cone(x, y, cone):
            return hilbertgeom.hilbert_cone(x, y, cone) + hilbertgeom.LogValue(2)

        result = self._loop(_fake_library(hilbert_cone=wrong_hilbert_cone))
        distances = sum(kind.startswith("distance.") for kind in result["kinds"])
        self.assertEqual(result["failed"], distances)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("CheckFailed", result["failures"][0])

    def test_exception_is_counted(self):
        def broken(*args):
            raise RuntimeError("boom")

        result = self._loop(_fake_library(detour_metric=broken))
        self.assertEqual(result["failed"], sum(kind.startswith("detour.") for kind in result["kinds"]))

    def test_wrong_isometry_is_counted(self):
        def stretched(g, v):
            moved = hilbertgeom.apply_isometry(g, v)
            return hilbertgeom.vclass(moved.rep[:-1] + (2 * moved.rep[-1],))

        workload = workloads.Isometry(_fake_library(apply_isometry=stretched), 1)
        op = workload.next_round()[0][1]
        with self.assertRaises(workloads.CheckFailed):
            op()


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("root", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),
            ("a.child", 20, 30, 1, 0),
            ("b", 50, 90, 0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [30, 20, 10, 40])

    def test_overlapping_and_protruding_children(self):
        spans = [
            ("root", 0, 100, -1, 0),
            ("x", 10, 40, 0, 0),
            ("y", 30, 60, 0, 0),  # overlaps x on [30, 40]
            ("z", 90, 120, 0, 0),  # sticks out of root past 100
        ]
        self.assertEqual(tracing.self_times(spans)[0], 100 - 50 - 10)

    def test_layer_metrics_are_per_op(self):
        spans = [
            ("op.a", 0, 100, -1, 0),
            ("linalg.feasible_standard", 10, 30, 0, 0),
            ("op.b", 200, 300, -1, 1),
            ("linalg.feasible_standard", 210, 250, 2, 1),
            ("linalg.feasible_standard", 400, 500, -1, -1),  # set-up: ignored
        ]
        counters = {"lp_cells": 40, "lp_feasible": 1}
        m = tracing.layer_metrics(spans, counters, ops=2)
        self.assertEqual(m["linalg.feasible_standard.calls_per_op"], 1.0)
        self.assertEqual(m["linalg.feasible_standard.self_ms_per_op"], 30 / 1e6)
        self.assertEqual(m["linalg.lp_cells_per_op"], 20.0)
        self.assertEqual(m["linalg.lp_feasible_ratio"], 0.5)
        self.assertEqual(m["metrics.m_ratio.calls_per_op"], 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_names_match_a_traced_run(self):
        import json

        declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
        reported = set(tracing.layer_metrics([], {}, ops=1))
        reported |= {"trace.overhead_ratio", "cli.interpreter_ms", "cli.import_ms"}
        reported |= {f"cli.{sub}.main_ms" for sub in run.CLI_SUBCOMMANDS}
        self.assertEqual(declared, reported)


class TracerTest(unittest.TestCase):
    def test_catches_imported_copies_and_restores(self):
        import hilbertgeom.horoboundary as horo
        import hilbertgeom.linalg as linalg

        original = linalg.feasible_standard
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(horo.canonical_index_set, "__wrapped__"))
            domain = gen.tangent_polygon(random.Random(99), 5)  # fresh cone: the lattice cache misses
            cone = hilbertgeom.cone_from_polytope(hilbertgeom.HPolytope(2, domain.halfspaces))
            tracer.current_op = 0
            hilbertgeom.enumerate_parts(cone)
        finally:
            tracer.uninstall()
        self.assertIs(linalg.feasible_standard, original)
        names = [s[0] for s in tracer.spans()]
        self.assertIn("geometry.PolyCone", names)
        self.assertIn("horoboundary.enumerate_parts", names)
        self.assertIn("tangent.canonical_index_set", names)
        spans = list(tracer.spans())
        lp = next(s for s in spans if s[0] == "linalg.feasible_standard" and s[4] == 0)
        self.assertNotEqual(lp[3], tracing.NO_PARENT)
        self.assertGreater(tracer.counters.lattice_misses_tried, 0)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_above(self):
        self.assertEqual(run.tail_percentile(35), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(50000), 99)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(run.percentile([5], 99), 5)


if __name__ == "__main__":
    unittest.main()
