"""Tests of the benchmark itself: its checks, its trace and its ladder fit.

Run from the root of a checkout with ``python3 -m pytest benchmarks``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ladder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from p3conv import generators  # noqa: E402


def test_wrong_expected_value_makes_failed_share_nonzero(tmp_path, monkeypatch):
    items = workloads.uig_ordered(random.Random(3), tmp_path)[:4]
    right, _ = run.run_items(items, seconds=0.2)
    assert right.attempted >= 2 and right.failed == 0

    oracle = workloads.percolation_time_bruteforce
    monkeypatch.setattr(workloads, "percolation_time_bruteforce", lambda g: oracle(g) + 1)
    items = workloads.uig_ordered(random.Random(3), tmp_path)[:4]
    wrong, _ = run.run_items(items, seconds=0.2)
    # Odd pool positions are clique chains, checked against the oracle.
    assert wrong.failed == wrong.attempted // 2 > 0
    assert wrong.failed / wrong.attempted > 0


def test_first_round_completes_and_items_keep_their_slowest_call(tmp_path):
    items = workloads.uig_ordered(random.Random(3), tmp_path)[:3]
    once, _ = run.run_items(items, seconds=0)
    assert once.attempted == 3 and sorted(once.slowest) == [0, 1, 2]

    rounds, _ = run.run_items(items, seconds=0.5)
    assert rounds.attempted > 3
    for index in range(3):
        calls = rounds.latencies[index::3]
        assert rounds.slowest[index] == max(calls)


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    items = workloads.uig_ordered(random.Random(5), tmp_path)[:6]
    tracer = spans.Tracer()
    untraced, traced = run.run_items(items, seconds=0.5, tracer=tracer)
    assert traced.failed == 0 and traced.attempted == untraced.attempted
    self_s, calls = tracer.self_times()
    overhead = traced.busy_s - untraced.busy_s
    assert abs(traced.busy_s - sum(self_s.values())) <= abs(overhead) + 1e-3
    assert calls["cli.main"] == traced.attempted
    assert calls["unit_interval.cut_segments"] == 2 * traced.attempted


def test_generator_spans_are_per_next():
    tracer = spans.Tracer()
    with tracer.installed():
        graphs = list(generators.connected_graphs(4))
    self_s, calls = tracer.self_times()
    assert len(graphs) == 6
    assert tracer.counts["generators.connected_graphs.yielded"] == 6
    assert calls["generators.connected_graphs"] == 7  # six yields and the final stop
    assert self_s["generators.connected_graphs"] > 0
    assert generators.connected_graphs.__name__ == "connected_graphs"
    assert not hasattr(generators.connected_graphs, "__wrapped__")


def test_inputs_depend_only_on_the_seed(tmp_path):
    def texts(seed, name):
        workloads.build("analyze_mix", seed, tmp_path / name)
        return [p.read_text() for p in sorted((tmp_path / name).rglob("*.txt"))]

    first = texts(7, "a")
    assert first == texts(7, "b")
    assert first != texts(8, "c")


def test_growth_exponent_of_a_power_law():
    assert ladder.growth_exponent([10, 100, 1000], [1.0, 100.0, 10000.0]) == pytest.approx(2.0)
    assert ladder.growth_exponent([10], [1.0]) == 0.0


def test_reverse_finding_recount():
    # graph6 D]_: a 4-cycle with a pendant vertex.
    assert workloads._reverse_finding_holds(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3)))
    # A path on four vertices is pattern-free and idempotent.
    assert not workloads._reverse_finding_holds(4, ((0, 1), (1, 2), (2, 3)))


def test_fails_without_the_program_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "validate_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
