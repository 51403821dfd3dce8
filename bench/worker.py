"""One benchmark process: a workload run, a traced CLI child, or a CLI timing probe.

    worker.py run --workload W --seed N --seconds S [--setup-only] [--trace SPANS]
    worker.py cli-child SPANS ARGV...
    worker.py cli-main

`run` imports hilbertgeom, sets the workload up, warms it up and prints
`READY`; the parent times that line as set-up.  It then runs whole rounds
until `--seconds` have passed, timing each op, and prints one JSON line
with the op latencies, failures and peak resident memory.  With `--trace`
the library is traced during the timed rounds and the spans are written
to SPANS.  `cli-child` runs `hilbertgeom.cli.main` under the tracer and
writes its spans and counters next to SPANS.  `cli-main` times every CLI
case of one round in-process, with stdout captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Cli, golden_cases  # noqa: E402

MAX_FAILURES_KEPT = 5


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _load_child(spans_path: Path, tracer, op: int) -> None:
    tracer.extend(tracing.read_spans(spans_path), op)
    tracer.counters.merge(json.loads(spans_path.with_suffix(".json").read_text()))


def timed_loop(workload, seconds: float, tracer=None, kernel=speed.FRACTION) -> dict:
    """Run whole rounds until `seconds` have passed; time every op and count failures.

    A failure is an op that raised, whether its exactness check failed or
    the library raised; the loop records it and goes on.  The speed kernel
    runs between ops, and `samples_ns` holds each latency at reference speed
    next to the measured `raw_samples_ns`.
    """
    # Flat arrays keep the harness's own memory small next to the library's.
    starts, raw, kinds, failures = array("q"), array("q"), [], []
    failed = 0
    clock = time.perf_counter_ns
    pace = speed.SpeedLog(kernel, clock)
    pace.sample()
    deadline = clock() + int(seconds * 1e9)
    started = clock()
    while not raw or clock() < deadline:
        for kind, thunk in workload.next_round():
            if tracer:
                tracer.current_op = len(raw)
                span = tracer.begin(tracer.name_id(tracing.OP + kind))
            t0 = clock()
            try:
                thunk()
            except Exception as exc:  # the gate counts every failure and keeps going
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{kind}: {type(exc).__name__}: {exc}"[:500])
            elapsed = clock() - t0
            if tracer:
                tracer.finish(span)
                tracer.current_op = tracing.NO_OP
            starts.append(t0)
            raw.append(elapsed)
            kinds.append(kind)
            pace.maybe_sample()
    wall = clock() - started
    peak = _max_rss_mb(resource.RUSAGE_SELF), _max_rss_mb(resource.RUSAGE_CHILDREN)
    pace.sample()
    return {
        "peak_rss_mb": peak[0],
        "peak_child_rss_mb": peak[1],
        "attempted": len(raw),
        "failed": failed,
        "failures": failures,
        "samples_ns": [e * pace.factor(t, t + e) for t, e in zip(starts, raw)],
        "raw_samples_ns": list(raw),
        "kinds": kinds,
        "wall_ns": wall,
        "kernel_ms": pace.median_ms(),
    }


def run(args) -> int:
    import hilbertgeom as hg

    workload = WORKLOADS[args.workload](hg, args.seed)
    workload.setup()
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        spans_out = Path(args.trace)
        tracer = tracing.Tracer()
        tracer.install()
        if isinstance(workload, Cli):
            child_spans = spans_out.with_name(spans_out.stem + "-child.tsv")
            workload.command = [sys.executable, str(BENCH / "worker.py"), "cli-child", str(child_spans)]
            workload.after_child = lambda: _load_child(child_spans, tracer, tracer.current_op)

    kernel = speed.kernel_for(args.workload)
    result = timed_loop(workload, args.seconds, tracer, kernel)
    if tracer:
        tracer.uninstall()
        spans = list(tracer.spans())
        layers = tracing.layer_metrics(spans, tracer.counters.as_dict(), result["attempted"])
        scale = kernel.reference_ms / result["kernel_ms"] if kernel else 1.0
        result["layers"] = {k: v * scale if k.endswith("_ms_per_op") else v for k, v in layers.items()}
        tracer.write(spans_out)
    print(json.dumps(result), flush=True)
    return 0


def cli_child(args) -> int:
    import hilbertgeom.cli

    tracer = tracing.Tracer()
    tracer.install()
    spans_path = Path(args.spans)
    try:
        code = hilbertgeom.cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(spans_path)
        spans_path.with_suffix(".json").write_text(json.dumps(tracer.counters.as_dict()))
    return code


def cli_main(args) -> int:
    """Mean in-process `cli.main` milliseconds per subcommand over one round."""
    import hilbertgeom.cli

    times: dict[str, list] = {}
    for sub, argv, want in golden_cases():
        buffer = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(buffer):
            code = hilbertgeom.cli.main(argv)
        elapsed = time.perf_counter_ns() - t0
        if code != 0 or buffer.getvalue().encode() != want:
            print(f"in-process {sub} differs from its golden file", file=sys.stderr)
            return 1
        times.setdefault(sub, []).append(elapsed / 1e6)
    print(json.dumps({sub: sum(v) / len(v) for sub, v in times.items()}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="SPANS")
    p.set_defaults(func=run)
    c = sub.add_parser("cli-child")
    c.add_argument("spans")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=cli_child)
    sub.add_parser("cli-main").set_defaults(func=cli_main)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
