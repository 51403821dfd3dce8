"""In-memory span tracing of hilbertgeom's public functions, from outside the package.

`Tracer.install` replaces each traced function wherever a `hilbertgeom.*`
module binds it (so `from .x import y` copies are caught too) and wraps
the `PolyCone` and `HPolytope` constructors.  Each call records a span:
name, start, end, parent span and op id.  Spans stay in flat arrays until
the run ends; `write` dumps them as TSV and `layer_metrics` turns them into
the per-layer metrics, normalised per op.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from fractions import Fraction

# layer -> public functions traced in that module.
FUNCTIONS = {
    "linalg": ("feasible_standard", "rref"),
    "geometry": ("face_lattice_active_sets", "classify_point"),
    "tangent": ("canonical_index_set", "subcone"),
    "metrics": ("m_ratio", "hilbert_cone", "hilbert_cross_ratio", "face_m_ratio"),
    "horoboundary": (
        "busemann_eval", "detour_metric", "enumerate_parts",
        "busemann_point", "classify_part", "part_dimension",
    ),
    "simplex": ("point_group_elements", "apply_isometry", "compose", "var_dist"),
    "cli": ("main",),
}
CONSTRUCTORS = {"geometry": ("PolyCone", "HPolytope")}

OP = "op."  # prefix of the root span of one benchmark op, followed by its kind
NO_PARENT = -1
NO_OP = -1

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
CALLS = (
    "linalg.feasible_standard", "linalg.rref", "geometry.PolyCone",
    "tangent.canonical_index_set", "geometry.classify_point", "metrics.m_ratio",
    "simplex.apply_isometry", "simplex.compose",
)
SELF = (
    "linalg.feasible_standard", "linalg.rref", "geometry.PolyCone", "geometry.HPolytope",
    "geometry.face_lattice_active_sets", "tangent.canonical_index_set", "tangent.subcone",
    "geometry.classify_point", "metrics.m_ratio", "metrics.hilbert_cone",
    "metrics.hilbert_cross_ratio", "metrics.face_m_ratio", "horoboundary.busemann_eval",
    "horoboundary.detour_metric", "horoboundary.enumerate_parts", "horoboundary.busemann_point",
    "horoboundary.classify_part", "horoboundary.part_dimension",
    "simplex.point_group_elements", "simplex.apply_isometry", "simplex.var_dist",
)


def _bits(point) -> int:
    best = 0
    for c in point:
        q = c if type(c) is Fraction else Fraction(c)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Counters:
    """Counts taken at span boundaries, for the ratio metrics."""

    def __init__(self):
        self.lp_cells = 0
        self.lp_feasible = 0
        self.lattice_misses_tried = 0
        self.lattice_misses_returned = 0
        self.canonical_reduced = 0
        self.arg_bits_max = 0

    def as_dict(self) -> dict:
        return dict(vars(self))

    def merge(self, other: dict) -> None:
        for key, value in other.items():
            if key == "arg_bits_max":
                self.arg_bits_max = max(self.arg_bits_max, value)
            else:
                setattr(self, key, getattr(self, key) + value)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = NO_OP
        self.counters = Counters()
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            if before is not None:
                args, token = before(args)
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(args, result, token if before is not None else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def _hooks(self, qualname: str, module):
        c = self.counters
        if qualname == "linalg.feasible_standard":
            def after(args, result, _):
                rows = args[0]
                c.lp_cells += len(rows) * (len(rows[0]) if len(rows) else 0)
                c.lp_feasible += bool(result)
            return None, after
        if qualname == "tangent.canonical_index_set":
            def before(args):
                indices = tuple(args[1])
                return (args[0], indices) + tuple(args[2:]), len(set(indices))
            def after(args, result, size):
                c.canonical_reduced += len(result) < size
            return before, after
        if qualname == "geometry.face_lattice_active_sets":
            cached = module._face_lattice_cached
            def before(args):
                return args, cached.cache_info().misses
            def after(args, result, misses):
                if cached.cache_info().misses > misses:
                    c.lattice_misses_tried += 2 ** args[0].num_facets - 2
                    c.lattice_misses_returned += len(result)
            return before, after
        if qualname in ("metrics.m_ratio", "metrics.hilbert_cone", "metrics.face_m_ratio"):
            def after(args, result, _):
                c.arg_bits_max = max(c.arg_bits_max, _bits(args[0]), _bits(args[1]))
            return None, after
        if qualname == "metrics.hilbert_cross_ratio":
            def after(args, result, _):
                c.arg_bits_max = max(c.arg_bits_max, _bits(args[1]), _bits(args[2]))
            return None, after
        return None, None

    def install(self, package: str = "hilbertgeom") -> None:
        """Wrap every traced function in every loaded `package.*` namespace."""
        importlib.import_module(package)
        for layer, names in FUNCTIONS.items():
            module = importlib.import_module(f"{package}.{layer}")
            for fname in names:
                original = getattr(module, fname)
                before, after = self._hooks(f"{layer}.{fname}", module)
                wrapper = self.wrap(f"{layer}.{fname}", original, before, after)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for layer, classes in CONSTRUCTORS.items():
            module = importlib.import_module(f"{package}.{layer}")
            for cname in classes:
                cls = getattr(module, cname)
                original = cls.__init__
                self._restore.append((cls, "__init__", original))
                cls.__init__ = self.wrap(f"{layer}.{cname}", original)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, op) tuples in recording order."""
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for row in self.spans():
                out.write("\t".join(map(str, row)) + "\n")

    def extend(self, spans, op: int) -> None:
        """Append spans recorded elsewhere (a child process) under one op, re-rooted."""
        base = len(self.start)
        root = self._stack[-1] if self._stack else NO_PARENT
        for name, start, end, parent, _ in spans:
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(root if parent == NO_PARENT else base + parent)
            self.op.append(op)


def read_spans(path) -> list:
    rows = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            name, start, end, parent, op = line.rstrip("\n").split("\t")
            rows.append((name, int(start), int(end), int(parent), int(op)))
    return rows


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    `spans` is a sequence of (name, start, end, parent, op); a child's
    interval is clipped to its parent's and overlapping children are
    merged, so no instant is subtracted twice.
    """
    children: dict[int, list] = {}
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters: dict, ops: int) -> dict:
    """Per-op call counts, self milliseconds and ratios from one traced run.

    Spans outside an op (set-up) are ignored.  A layer that an op never
    calls reports 0.
    """
    ops = max(ops, 1)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        name, op = span[0], span[4]
        if op == NO_OP:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
    out = {}
    for name in CALLS:
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
    for name in SELF:
        out[f"{name}.self_ms_per_op"] = self_ns.get(name, 0) / 1e6 / ops
    lps = calls.get("linalg.feasible_standard", 0)
    canon = calls.get("tangent.canonical_index_set", 0)
    tried = counters.get("lattice_misses_tried", 0)
    out["linalg.lp_cells_per_op"] = counters.get("lp_cells", 0) / ops
    out["linalg.lp_feasible_ratio"] = counters.get("lp_feasible", 0) / lps if lps else 0.0
    out["geometry.lattice_yield"] = counters.get("lattice_misses_returned", 0) / tried if tried else 0.0
    out["tangent.canonical_reduced_ratio"] = counters.get("canonical_reduced", 0) / canon if canon else 0.0
    out["metrics.arg_bits_max"] = counters.get("arg_bits_max", 0)
    return out


def per_call(spans, op_kind: str = "") -> dict:
    """name -> (calls, mean inclusive us, mean self us) over ops whose kind starts with `op_kind`."""
    kinds = {}
    for name, _, _, parent, op in spans:
        if parent == NO_PARENT and name.startswith(OP):
            kinds[op] = name[len(OP):]
    totals: dict[str, list] = {}
    for (name, start, end, _, op), own in zip(spans, self_times(spans)):
        if op == NO_OP or not kinds.get(op, "").startswith(op_kind):
            continue
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return {name: (n, incl / n / 1e3, own / n / 1e3) for name, (n, incl, own) in totals.items()}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Per-call times from a spans file of a traced run.")
    parser.add_argument("spans", help="bench/out/spans-<workload>-<seed>.tsv")
    parser.add_argument("--op-kind", default="", help="only ops whose kind starts with this")
    args = parser.parse_args(argv)
    rows = per_call(read_spans(args.spans), args.op_kind)
    print(f"{'span':45s} {'calls':>9s} {'incl us/call':>13s} {'self us/call':>13s}")
    for name, (n, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][0] * kv[1][2]):
        print(f"{name:45s} {n:9d} {incl:13.1f} {own:13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
