"""hilbertgeom benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload runs in fresh worker
processes (bench/worker.py), one closed-loop client each.  With --trace 0
the end-to-end metrics are measured untraced; with --trace 1 the per-layer
metrics come from a traced run, next to an untraced one for the tracing
overhead.  The last line of stdout is the JSON result; the line before it
is the run's metadata, also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("query", "construct", "isometry", "cli")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
# latency_tail_ms is the highest of these percentiles with at least ten samples above
# it.  p99.9 is left out: query runs make 10,000 to 20,000 ops, so the percentile
# would flip between p99.9 and p99 from one run to the next.
TAIL_LADDER = (99, 90, 50)
DEADLINE_S = 170
CLI_SUBCOMMANDS = ("dist", "parts", "detour", "simplex-isom", "tangent")

_started = time.monotonic()


class BenchError(Exception):
    pass


def _remaining() -> float:
    left = DEADLINE_S - (time.monotonic() - _started)
    if left <= 0:
        raise BenchError("benchmark deadline passed")
    return left


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(argv, ready: bool):
    """Run a worker; return (seconds until READY or None, parsed last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, stdout=subprocess.PIPE,
                            cwd=str(ROOT), env=_env(), text=True)
    try:
        setup = None
        if ready:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(_remaining()):
                    raise BenchError(f"worker {argv[:3]} did not get ready in time")
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "READY":
                raise BenchError(f"worker {argv[:3]} failed during set-up")
        out, _ = proc.communicate(timeout=_remaining())
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[:3]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _run_args(args, seconds, *extra):
    return ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), *extra]


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    for p in TAIL_LADDER:
        if count * (100 - p) / 100 >= 10:
            return p
    return 50


def _probe_ms(code: str) -> float:
    """Median milliseconds of `python -c code` in fresh interpreters, as measured."""
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=_env(), cwd=str(ROOT),
                       timeout=_remaining())
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _timed_setup(argv, kernel):
    """Set-up seconds of a fresh worker, as measured and at reference speed."""
    before = kernel.time_ns() if kernel else None
    setup, result = _worker(argv, ready=True)
    scale = kernel.scale(before, kernel.time_ns()) if kernel else 1.0
    return setup, setup * scale, result


def _latencies(samples_ns, tail) -> tuple:
    ordered = sorted(samples_ns)
    return (len(ordered) / (sum(ordered) / 1e9), percentile(ordered, 50) / 1e6,
            percentile(ordered, tail) / 1e6)


def end_to_end(args, meta: dict) -> tuple:
    kernel = speed.kernel_for(args.workload)
    raw_setups, setups = [], []
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        extra = () if last else ("--setup-only",)
        raw, scaled, result = _timed_setup(_run_args(args, args.seconds if last else 0, *extra), kernel)
        raw_setups.append(raw)
        setups.append(scaled)
    tail = tail_percentile(result["attempted"])
    throughput, p50, p_tail = _latencies(result["samples_ns"], tail)
    rss = result["peak_child_rss_mb"] if args.workload == "cli" else result["peak_rss_mb"]
    metrics = {
        "throughput_ops": (throughput, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (p_tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw_throughput, raw_p50, raw_tail = _latencies(result["raw_samples_ns"], tail)
    meta.update(samples=result["attempted"], tail_percentile=tail,
                kernel=kernel and {"name": kernel.name, "reference_ms": kernel.reference_ms,
                                   "median_ms": result["kernel_ms"]},
                measured={"throughput_ops": raw_throughput, "latency_p50_ms": raw_p50,
                          "latency_tail_ms": raw_tail, "setup_s": statistics.median(raw_setups)},
                setup_samples_s=raw_setups, wall_s=result["wall_ns"] / 1e9)
    return metrics, result


def per_layer(args, meta: dict) -> tuple:
    half = args.seconds / 2
    _, plain = _worker(_run_args(args, half), ready=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv"
    _, traced = _worker(_run_args(args, half, "--trace", str(spans)), ready=True)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (_latencies(traced["samples_ns"], 50)[0]
                                      / _latencies(plain["samples_ns"], 50)[0])
    bare = _probe_ms("pass")
    layers["cli.interpreter_ms"] = bare
    layers["cli.import_ms"] = _probe_ms("import hilbertgeom") - bare
    main_ms = _worker(["cli-main"], ready=False)[1] if args.workload == "cli" else {}
    for sub in CLI_SUBCOMMANDS:
        layers[f"cli.{sub}.main_ms"] = main_ms.get(sub, 0.0)
    meta.update(samples=len(traced["samples_ns"]), untraced_samples=len(plain["samples_ns"]),
                kernel_median_ms=traced["kernel_ms"], spans_file=str(spans.relative_to(ROOT)))
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    combined = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
    combined["failures"] = plain["failures"] + traced["failures"]
    return metrics, combined


def layer_unit(name: str) -> str:
    if name.endswith(".calls_per_op"):
        return "calls/op"
    if name.endswith("_ms_per_op"):
        return "ms/op"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("cells_per_op"):
        return "cells/op"
    if name.endswith("bits_max"):
        return "bits"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hilbertgeom benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hilbertgeom" / "__init__.py").is_file():
        print(f"no hilbertgeom sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli" and not (ROOT / "tests" / "data" / "golden").is_dir():
        print("the cli workload needs tests/data/golden", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and every worker and child it starts, so the
    # speed kernel always runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": nproc, "git_sha": _git_sha(), "src_lines": _src_lines(),
    }
    try:
        if args.trace:
            metrics, result = per_layer(args, meta)
        else:
            metrics, result = end_to_end(args, meta)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    meta.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                failures=result["failures"])
    for failure in result["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    meta_line = json.dumps(meta)
    (OUT / f"meta-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(meta_line + "\n")
    print(meta_line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
