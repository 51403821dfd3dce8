"""Golden-file and exit-code tests for the command-line interface."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hilbertgeom.metrics
from hilbertgeom import LogValue, cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = Path(__file__).parent.parent / "src"


def run_cli(*args, python_flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hilbertgeom", *args],
        capture_output=True,
        env=env,
    )


def golden_bytes(name):
    return (GOLDEN / name).read_bytes()


SQUARE = str(DATA / "square.json")
SIMPLEX = str(DATA / "simplex2.json")

GOLDEN_CASES = [
    (
        "dist_square.json",
        ["dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2"],
    ),
    (
        "dist_simplex2.json",
        ["dist", "--polytope", SIMPLEX, "--x", "1/4,1/4", "--y", "1/2,1/4"],
    ),
    ("parts_square.json", ["parts", "--polytope", SQUARE]),
    ("parts_simplex2.json", ["parts", "--polytope", SIMPLEX]),
    (
        "detour_square.json",
        [
            "detour",
            "--polytope",
            SQUARE,
            "--bp1",
            '{"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"}',
            "--bp2",
            '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}',
        ],
    ),
    (
        "detour_simplex2.json",
        [
            "detour",
            "--polytope",
            SIMPLEX,
            "--bp1",
            '{"x": "1,0,1", "cone_index": [0,1], "p": "1/4,1/4,1"}',
            "--bp2",
            '{"x": "0,1,1", "cone_index": [0,2], "p": "1/4,1/4,1"}',
        ],
    ),
    ("isom_orders_n2.json", ["simplex-isom", "--n", "2", "--orders"]),
    ("isom_witness_n2.json", ["simplex-isom", "--n", "2", "--witness"]),
    ("isom_group_n2.json", ["simplex-isom", "--n", "2", "--list-group"]),
    ("tangent_square.json", ["tangent", "--polytope", SQUARE, "--z", "0,1/2"]),
    ("tangent_simplex2.json", ["tangent", "--polytope", SIMPLEX, "--z", "0,0"]),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_byte_identical(self, name, args):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        assert result.stdout == golden_bytes(name)

    @pytest.mark.parametrize("name", ["parts_square.json", "detour_simplex2.json"])
    def test_byte_identical_with_asserts_stripped(self, name):
        args = dict(GOLDEN_CASES)[name]
        result = run_cli(*args, python_flags=("-O",))
        assert result.returncode == 0, result.stderr
        assert result.stdout == golden_bytes(name)

    def test_repeat_runs_are_deterministic(self):
        args = GOLDEN_CASES[2][1]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_rational_strings_round_trip(self, name, args):
        from hilbertgeom import format_rational, parse_rational

        def walk(node):
            if isinstance(node, str) and node not in ("inf",):
                if any(ch.isdigit() for ch in node):
                    assert format_rational(parse_rational(node)) == node
            elif isinstance(node, dict):
                for key, value in node.items():
                    if key in ("classification",):
                        continue
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(json.loads(golden_bytes(name)))


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("parts", "--polytope", SQUARE).returncode == 0

    def test_domain_error_is_one(self):
        result = run_cli("dist", "--polytope", SQUARE, "--x", "0,1/2", "--y", "1/2,1/2")
        assert result.returncode == 1
        assert b"domain error" in result.stderr

    def test_parse_error_is_two(self):
        result = run_cli("dist", "--polytope", SQUARE, "--x", "0.5,1/2", "--y", "1/2,1/2")
        assert result.returncode == 2
        assert b"parse error" in result.stderr

    def test_bad_polytope_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("parts", "--polytope", str(bad)).returncode == 2
        missing = tmp_path / "missing.json"
        assert run_cli("parts", "--polytope", str(missing)).returncode == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": True, "facets": [{"normal": ["1"], "offset": "0"}, {"normal": ["-1"], "offset": "-4"}]},
            {"dim": 2, "facets": [
                {"normal": "10", "offset": "0"}, {"normal": ["-1", "0"], "offset": "-1"},
                {"normal": ["0", "1"], "offset": "0"}, {"normal": ["0", "-1"], "offset": "-1"},
            ]},
            {"dim": 1, "facets": [{"normal": {"1": 0}, "offset": "0"}, {"normal": ["-1"], "offset": "-4"}]},
            {"dim": 1, "facets": [{"normal": [1], "offset": "0"}, {"normal": ["-1"], "offset": "-4"}]},
            {"dim": 1, "facets": [{"normal": ["1"], "offset": 0}, {"normal": ["-1"], "offset": "-4"}]},
        ],
        ids=["bool-dim", "string-normal", "object-normal", "int-coefficient", "int-offset"],
    )
    def test_malformed_polytope_fields_are_two(self, tmp_path, data):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        result = run_cli("parts", "--polytope", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith(b"parse error") and result.stderr.count(b"\n") == 1

    def test_overlong_rational_is_two(self):
        digits = "3" * 5000
        result = run_cli("dist", "--polytope", SQUARE, "--x", f"1/{digits},1/2", "--y", "1/2,1/2")
        assert result.returncode == 2
        assert result.stderr.startswith(b"parse error") and result.stderr.count(b"\n") == 1
        assert b"limit" in result.stderr

    @pytest.mark.parametrize("field", ["x", "p"])
    def test_non_string_busemann_point_is_two(self, field):
        spec = {"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"}
        spec[field] = 5
        ok = '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}'
        result = run_cli("detour", "--polytope", SQUARE, "--bp1", json.dumps(spec), "--bp2", ok)
        assert result.returncode == 2
        assert result.stderr.startswith(b"parse error") and result.stderr.count(b"\n") == 1

    def test_boolean_cone_index_is_two(self):
        spec = '{"x": "0,1/4,1", "cone_index": [true], "p": "1/2,1/2,1"}'
        ok = '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}'
        result = run_cli("detour", "--polytope", SQUARE, "--bp1", spec, "--bp2", ok)
        assert result.returncode == 2
        assert result.stderr.startswith(b"parse error") and result.stderr.count(b"\n") == 1

    @staticmethod
    def _one_line_parse_error(result, *words):
        assert result.returncode == 2
        assert result.stderr.startswith(b"parse error") and result.stderr.count(b"\n") == 1
        assert b"Traceback" not in result.stderr
        for word in words:
            assert word in result.stderr

    def test_non_utf8_polytope_file_is_two(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        self._one_line_parse_error(run_cli("parts", "--polytope", str(path)), b"polytope file", b"UTF-8")

    def test_deeply_nested_polytope_file_is_two(self, tmp_path):
        for text in ("[" * 5000, "[" * 5000 + "]" * 5000):
            path = tmp_path / "deep.json"
            path.write_text(text)
            self._one_line_parse_error(run_cli("parts", "--polytope", str(path)), b"polytope file", b"deep")

    @pytest.mark.parametrize("which", ["--bp1", "--bp2"])
    def test_deeply_nested_busemann_spec_is_two(self, which):
        specs = {"--bp1": '{"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"}',
                 "--bp2": '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}'}
        specs[which] = "[" * 5000
        result = run_cli("detour", "--polytope", SQUARE, "--bp1", specs["--bp1"], "--bp2", specs["--bp2"])
        self._one_line_parse_error(result, b"Busemann spec", b"deep")

    def test_unbounded_polytope_file_is_two(self, tmp_path):
        unbounded = tmp_path / "unbounded.json"
        unbounded.write_text(
            json.dumps({"dim": 1, "facets": [{"normal": ["1"], "offset": "0"}]})
        )
        assert run_cli("parts", "--polytope", str(unbounded)).returncode == 2

    def test_invalid_busemann_data_is_one(self):
        result = run_cli(
            "detour",
            "--polytope",
            SQUARE,
            "--bp1",
            '{"x": "1/2,1/2,1", "cone_index": [0], "p": "1/2,1/2,1"}',
            "--bp2",
            '{"x": "0,1/2,1", "cone_index": [3], "p": "1/2,1/2,1"}',
        )
        assert result.returncode == 1

    def test_non_integer_n_is_one_line_and_two(self):
        result = run_cli("simplex-isom", "--n", "two", "--orders")
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == b"parse error: hilbertgeom simplex-isom: argument --n: invalid int value: 'two'\n"

    def test_separate_negative_value_is_one_line(self):
        result = run_cli("dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "-1/3,1/3")
        assert result.stdout == b""
        # Newer argparse reads a separate "-1/3,1/3" as a negative number, older as an option.
        probe = argparse.ArgumentParser(exit_on_error=False)
        probe.add_argument("--y")
        try:
            probe.parse_args(["--y", "-1/3,1/3"])
        except argparse.ArgumentError:
            assert result.returncode == 2
            assert result.stderr == b"parse error: hilbertgeom dist: argument --y: expected one argument\n"
        else:
            assert result.returncode == 1
            assert result.stderr == b"domain error: point ('-1/3', '1/3') is not interior\n"

    def test_out_of_range_n_is_one(self):
        assert run_cli("simplex-isom", "--n", "9", "--orders").returncode == 1
        assert run_cli("simplex-isom", "--n", "0", "--orders").returncode == 1

    def test_one_past_the_largest_n_names_the_range(self):
        result = run_cli("simplex-isom", "--n", "7", "--orders")
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"domain error: n must be between 1 and 6\n"

    def test_interior_tangent_point_is_one(self):
        result = run_cli("tangent", "--polytope", SQUARE, "--z", "1/2,1/2")
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"domain error: tangent cone at an interior point is the whole space\n"

    def test_disagreeing_distance_routes_are_one_domain_error_line(self, monkeypatch):
        monkeypatch.setattr(hilbertgeom.metrics, "hilbert_cone", lambda x, y, cone: LogValue(2))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2"])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == (
            "domain error: cross-ratio and cone formulations disagree: LogValue(3) vs LogValue(2)\n"
        )

    def test_redundant_halfspaces_give_the_square_distance(self, tmp_path):
        """The chord reads every input row, the cone drops the redundant ones, and the two routes still agree."""
        square = json.loads(Path(SQUARE).read_text())
        square["facets"] += [
            {"normal": ["2", "0"], "offset": "0"},  # facet 0 at twice its scale
            {"normal": ["1", "0"], "offset": "-1"},  # x > -1, implied by x > 0
        ]
        path = tmp_path / "redundant_square.json"
        path.write_text(json.dumps(square))
        result = run_cli("dist", "--polytope", str(path), "--x", "1/2,1/2", "--y", "3/4,1/2")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == golden_bytes("dist_square.json")

    def test_coincident_points_give_zero(self):
        result = run_cli("dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "1/2,1/2")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload == {"log_arg": "1", "value": 0.0}

    def test_interval_parts(self, tmp_path):
        interval_file = tmp_path / "interval.json"
        interval_file.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "facets": [
                        {"normal": ["1"], "offset": "0"},
                        {"normal": ["-1"], "offset": "-4"},
                    ],
                }
            )
        )
        result = run_cli("parts", "--polytope", str(interval_file))
        assert result.returncode == 0
        assert len(json.loads(result.stdout)["parts"]) == 2

    def test_orders_for_n3(self):
        result = run_cli("simplex-isom", "--n", "3", "--orders")
        assert json.loads(result.stdout) == {"coll_point_group": 24, "isom_point_group": 48}

    def test_orders_for_n6(self):
        result = run_cli("simplex-isom", "--n", "6", "--orders")
        assert json.loads(result.stdout) == {"coll_point_group": 5040, "isom_point_group": 10080}

    def test_detour_of_identical_specs_is_zero(self):
        spec = '{"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"}'
        result = run_cli("detour", "--polytope", SQUARE, "--bp1", spec, "--bp2", spec)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["finite"] is True
        assert payload["log_arg"] == "1"

    def test_cross_method_agreement_flag_paths(self):
        chord = run_cli(
            "dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2",
            "--method", "cross-ratio",
        )
        gauge = run_cli(
            "dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2",
            "--method", "cone",
        )
        both = run_cli("dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2")
        assert chord.returncode == gauge.returncode == both.returncode == 0
        assert chord.stdout == gauge.stdout == both.stdout
