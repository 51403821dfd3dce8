"""Seeded fuzz of `cli.main`: malformed input ends in exit 0, 1 or 2, never a traceback.

Each case mutates one input of a working command: the polytope file (as a
JSON document or as raw bytes), a point, a Busemann spec or the `--n` of
`simplex-isom`.  The argument vector itself keeps a shape argparse
accepts, so every case reaches a subcommand handler: values are passed
as `--x=...`, since argparse reads a separate "-1/3,1/3" as an option.
A case passes when `main` returns 0 with one JSON line on stdout and
nothing on stderr, or returns 1 or 2 with nothing on stdout and exactly
one line on stderr.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hilbertgeom import cli

from test_cli import SIMPLEX, SQUARE

# Per domain: the file and inputs on which each subcommand succeeds.
DOMAINS = [
    (SQUARE, ["1/2,1/2", "3/4,1/2", "1/5,2/3"], [
        {"x": "0,1/4,1", "cone_index": [3], "p": "1/2,1/2,1"},
        {"x": "0,1/2,1", "cone_index": [3], "p": "1/3,1/2,1"},
    ]),
    (SIMPLEX, ["1/4,1/4", "1/2,1/4", "1/5,1/3"], [
        {"x": "1,0,1", "cone_index": [0, 1], "p": "1/4,1/4,1"},
        {"x": "0,1,1", "cone_index": [0, 2], "p": "1/4,1/4,1"},
    ]),
]
BOUNDARY_Z = "0,1/2"  # on an edge of both domains

TOKENS = [
    "0", "1", "-1", "3/2", "-7/3", "1/0", "0.5", "1e3", "", " ", "x", "1/2/3", "+4", "9" * 60, "9" * 5000,
    0, 1, 0.5, True, None, [], {}, ["1"],
]
DIMS = [2, 3, 1, 0, -1, 7, 2.0, "2", True, None, [2]]
POINTS = ["1/2,1/2", "1/4,1/4", "0,1/2", "2,2", "1/2", "1/2,1/2,1", "1/2,x", "0.5,0.5", "", ",", "1/0,1", "-1/3,1/3"]
INDICES = [[3], [0, 1], [0, 2], [], [7], [-1], [True], [1.5], ["a"], 3, None, {"0": 1}, [0, 1, 2, 3]]
BOUNDARY_X = ["0,1/4,1", "0,1/2,1", "1,0,1", "0,1,1", "0,0,1", "1/2,1/2,1", "3,0,1", "0,0,0"]
REFERENCE_P = ["1/2,1/2,1", "1/4,1/4,1", "1/3,1/3,1", "2,2,1", "0,0,1", "1/2,1/2"]


def mutate_document(rng, document):
    doc = json.loads(json.dumps(document))
    facets = doc["facets"]
    choice = rng.randrange(9)
    if choice == 0:
        doc["dim"] = rng.choice(DIMS)
    elif choice == 1:
        del facets[rng.randrange(len(facets))]
    elif choice == 2:
        facets.append(json.loads(json.dumps(rng.choice(facets))))
    elif choice == 3:
        entry = rng.choice(facets)
        entry["normal"][rng.randrange(len(entry["normal"]))] = rng.choice(TOKENS)
    elif choice == 4:
        rng.choice(facets)["offset"] = rng.choice(TOKENS)
    elif choice == 5:
        entry = rng.choice(facets)
        entry["normal"] = rng.choice([entry["normal"][:1], entry["normal"] + ["1"], "1,0", 5, None])
    elif choice == 6:
        del rng.choice(facets)[rng.choice(["normal", "offset"])]
    elif choice == 7:
        del doc[rng.choice(["dim", "facets"])]
    else:
        doc["facets"] = rng.choice([{}, "abc", 5, [], [[1, 0]], facets[:1]])
    return json.dumps(doc).encode()


def mutate_bytes(rng, document):
    raw = bytearray(json.dumps(document).encode())
    at = rng.randrange(len(raw))
    choice = rng.randrange(3)
    if choice == 0:
        return bytes(raw[:at])
    if choice == 1:
        del raw[at]
        return bytes(raw)
    raw.insert(at, rng.choice(b'{}[],:"\\\xff\x00a9-'))
    return bytes(raw)


def mutate_spec(rng, spec):
    spec = dict(spec)
    choice = rng.randrange(5)
    if choice == 0:
        spec["x"] = rng.choice(BOUNDARY_X)
    elif choice == 1:
        spec["cone_index"] = rng.choice(INDICES)
    elif choice == 2:
        spec["p"] = rng.choice(REFERENCE_P)
    elif choice == 3:
        del spec[rng.choice(list(spec))]
    else:
        text = json.dumps(spec)
        return text[: rng.randrange(len(text))]
    return json.dumps(spec)


def fuzz_case(rng, polytope_path):
    """One argument vector with at most one input mutated; the polytope file is written to `polytope_path`."""
    kind = rng.choice(["dist", "parts", "detour", "tangent", "simplex-isom"])
    mutate = rng.random() < 0.8
    if kind == "simplex-isom":
        n = rng.choice(["-2", "0", "7", "99", "123456789012345678901234567890"]) if mutate else rng.choice("123")
        return ["simplex-isom", f"--n={n}", rng.choice(["--orders", "--witness", "--list-group"])]
    path, points, specs = rng.choice(DOMAINS)
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    inputs = {
        "dist": ["polytope", "x", "y"], "parts": ["polytope"], "detour": ["polytope", "bp1", "bp2"],
        "tangent": ["polytope", "z"],
    }[kind]
    target = rng.choice(inputs) if mutate else None
    raw = json.dumps(document).encode()
    if target == "polytope":
        raw = mutate_document(rng, document) if rng.random() < 0.7 else mutate_bytes(rng, document)
    polytope_path.write_bytes(raw)
    if target == "polytope" and rng.random() < 0.1:
        polytope_path = polytope_path.with_suffix(".missing")
    argv = [kind, f"--polytope={polytope_path}"]
    values = {
        "x": rng.choice(points), "y": rng.choice(points), "z": BOUNDARY_Z,
        "bp1": json.dumps(specs[0]), "bp2": json.dumps(specs[1]),
    }
    if target in ("x", "y", "z"):
        values[target] = rng.choice(POINTS)
    elif target in ("bp1", "bp2"):
        values[target] = mutate_spec(rng, json.loads(values[target]))
    argv += [f"--{name}={values[name]}" for name in inputs[1:]]
    if kind == "dist" and rng.random() < 0.3:
        argv.append(f"--method={rng.choice(['cone', 'cross-ratio'])}")
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_inputs_exit_cleanly(tmp_path):
    rng = random.Random(20261028)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(400):
        argv = fuzz_case(rng, tmp_path / "polytope.json")
        code, out, err = run_main(argv)  # an escaping exception fails the test with its traceback
        assert code in codes, (argv, code, err)
        if code == 0:
            assert err == "" and out.count("\n") == 1, (argv, out, err)
            json.loads(out)
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
        codes[code] += 1
    assert min(codes.values()) >= 40, codes
