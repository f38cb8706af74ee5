"""The p3conv benchmark: seeded CLI workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload analyze_mix --seed 1 --seconds 50 --trace 0

One process, one client, no threads: the workload's pool of items runs in
rounds, back to back, each item a ``p3conv`` command line passed to
``p3conv.cli.main`` in-process, until the next call would overrun
``--seconds``.  Inputs are generated from the seed and written to files
before timing starts; every output is checked after its timed call.
``--trace 0`` reports the end-to-end metrics, taking each item's slowest
call as its latency.  ``--trace 1`` runs the same items untraced and then
traced, reports per-layer self time, calls and share, counts, the tracing
overhead and the workload's size ladder, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object with
the result.  See README.md for the workloads and the
predictions they exist to test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import p3conv, p3conv.cli; print(time.perf_counter() - t)"
)


def measure_setup() -> list:
    """Times, in fresh interpreters, to import p3conv and its CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return times


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: shows when the machine, not the code, moved."""
    t0 = perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Pass:
    """Calls made in rounds over a pool of items, with timing and check results."""

    def __init__(self) -> None:
        self.latencies: list = []  # every call, in the order made
        self.slowest: dict = {}  # pool index -> slowest call of that item
        self.last: dict = {}  # pool index -> latest call of that item
        self.work: dict = {}  # pool index -> units of work its check counted
        self.failed = 0
        self.failures: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def _run_one(item, index: int, into: Pass) -> None:
    from p3conv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(item.argv))
        except Exception as exc:  # a crash fails the item's exit-code check
            rc = repr(exc)
        t = perf_counter() - t0
    into.latencies.append(t)
    into.last[index] = t
    into.slowest[index] = max(t, into.slowest.get(index, t))
    try:
        into.work[index] = item.check(rc, out.getvalue(), err.getvalue())
    except Exception as exc:  # a malformed output is a failed item, not a crash
        into.failed += 1
        into.failures.append(f"{' '.join(item.argv)}: {type(exc).__name__}: {exc}")


def run_items(items: list, seconds: float, tracer=None) -> tuple:
    """Run the pool in rounds until the next call would overrun `seconds`.

    The first round always completes, so every item runs at least once;
    after it, the next call is predicted to take as long as that item's
    last call.

    With a tracer, each call runs untraced and then traced, back to back, so
    drift in machine speed cancels out of the tracing overhead; both passes
    share the time.  Returns the untraced and the traced pass.
    """
    untraced, traced = Pass(), Pass()

    def predicted(index: int) -> float:
        return untraced.last[index] + traced.last.get(index, 0.0)

    start = perf_counter()
    i = 0
    while i < len(items) or perf_counter() - start + predicted(i % len(items)) <= seconds:
        index = i % len(items)
        _run_one(items[index], index, untraced)
        if tracer is not None:
            tracer.current_item = i
            with tracer.installed():
                _run_one(items[index], index, traced)
        i += 1
    return untraced, traced


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Pass, setup_s: float) -> dict:
    """Each item's slowest call stands for it; README.md (Noise) says why."""
    slowest = list(run.slowest.values())
    return {
        "items_per_s": (sum(run.work.values()) / sum(slowest), "1/s"),
        "item_p50_ms": (1000 * percentile(slowest, 50), "ms"),
        "item_p90_ms": (1000 * percentile(slowest, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Pass, traced: Pass, tracer, ladder_values: dict) -> dict:
    import spans

    self_s, calls = tracer.self_times()
    wall = traced.busy_s
    out = {}
    for entry, members in spans.ENTRIES.items():
        s = sum(self_s.get(m, 0.0) for m in members)
        out[f"{entry}.self_s"] = (s, "s")
        out[f"{entry}.calls"] = (sum(calls.get(m, 0) for m in members), "count")
        out[f"{entry}.share"] = (s / wall, "fraction")
    for layer in spans.LAYERS:
        s = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (s, "s")
        out[f"layer.{layer}.share"] = (s / wall, "fraction")
    for name in spans.COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    out["unit_interval.cut_segments.calls_per_item"] = (
        calls.get("unit_interval.cut_segments", 0) / traced.attempted, "count",
    )
    out["trace.items"] = (traced.attempted, "count")
    out["trace.traced_wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (untraced.busy_s, "s")
    out["tracing_overhead_s"] = (wall - untraced.busy_s, "s")
    out["trace.self_sum_s"] = (sum(self_s.values()), "s")
    out.update(ladder_values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "p3conv" / "__init__.py").is_file():
        print(f"error: no p3conv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = measure_setup() if not args.trace else []
    import p3conv
    import workloads

    if Path(p3conv.__file__).resolve().parent != SRC / "p3conv":
        print(f"error: imported p3conv from {p3conv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        calibration_s = calibrate()
        lines = src_lines()
        if args.trace:
            import ladder
            import spans

            tracer = spans.Tracer()
            untraced, traced = run_items(items, args.seconds, tracer)
            passes = [untraced, traced]
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
            ladder_values = ladder.run(args.workload, args.seed, log=lambda line: print(f"# {line}"))
            metrics = per_layer(untraced, traced, tracer, ladder_values)
            metrics["diag.src_lines"] = (lines, "lines")
            metrics["diag.calibration_s"] = (calibration_s, "s")
        else:
            untraced, _ = run_items(items, args.seconds)
            passes = [untraced]
            # Set up before and after the timed run, so that one slow stretch
            # of the host does not decide the median.
            setup_times += measure_setup()
            metrics = end_to_end(untraced, median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for line in p.failures[:5]:
            print(f"# failed: {line}")
    slowest = list(untraced.slowest.values())
    beyond = sum(1 for t in slowest if t > percentile(slowest, 90))
    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"item_samples: {len(slowest)} items, {untraced.attempted} calls ({beyond} items beyond p90)")
    print(f"failed_share: {failed / attempted:.6f} ({failed} of {attempted})")
    print(f"src_lines: {lines}")
    print(f"calibration_s: {calibration_s:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
