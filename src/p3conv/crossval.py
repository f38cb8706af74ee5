"""Cross-validation of closed-form parameters against the brute-force oracles.

Each suite generates a corpus, computes every parameter twice (formula and
oracle) and returns a report of per-check rows.  Every suite takes max_n,
which bounds its instance sizes, and cap, which it passes to every oracle
call; None keeps the suite's or the oracle's default.  A check whose oracle
raises CapExceeded, or gives None, is recorded as skipped rather than dropped.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import NamedTuple

from .caterpillar import (
    geodetic_number,
    hull_number,
    percolation_time as caterpillar_percolation_time,
    recognize_caterpillar,
)
from .generators import (
    DEFAULT_SEED,
    random_biconnected_chain,
    random_caterpillar,
    random_clique_chain,
    random_unit_interval_graph,
    realize_caterpillar,
    spine_sequences,
)
from .graphio import to_graph6
from .hereditary import (
    _SAMPLES_PER_SIZE,
    idempotence_corpus,
    interval_idempotent_by_patterns,
    printed_graphs,
)
from .oracle import (
    CapExceeded,
    interval_idempotent_bruteforce,
    p3_parameters_bruteforce,
    percolation_time_bruteforce,
)
from .unit_interval import (
    build_model,
    percolation_time as unit_interval_percolation_time,
    percolation_time_biconnected,
)


class CheckRow(NamedTuple):
    instance: str
    parameter: str
    formula: int
    oracle: int
    runtime: float

    @property
    def agree(self) -> bool:
        return self.formula == self.oracle


class ValidationReport(NamedTuple):
    rows: tuple[CheckRow, ...]
    skipped: tuple[str, ...] = ()

    @property
    def disagreements(self) -> tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if not r.agree)

    @property
    def summary(self) -> dict:
        bad = len(self.disagreements)
        return {
            "rows": len(self.rows),
            "agreeing": len(self.rows) - bad,
            "disagreeing": bad,
            "skipped": len(self.skipped),
        }

    def to_text(self) -> str:
        lines = ["instance\tparameter\tformula\toracle\tagree\tseconds"]
        for r in self.rows:
            lines.append(
                f"{r.instance}\t{r.parameter}\t{r.formula}\t{r.oracle}"
                f"\t{'yes' if r.agree else 'NO'}\t{r.runtime:.6f}"
            )
        for s in self.skipped:
            lines.append(f"# skipped beyond oracle cap: {s}")
        summ = self.summary
        lines.append(
            "# summary: rows={rows} agreeing={agreeing} "
            "disagreeing={disagreeing} skipped={skipped}".format(**summ)
        )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "instance": r.instance,
                    "parameter": r.parameter,
                    "formula": r.formula,
                    "oracle": r.oracle,
                    "agree": r.agree,
                    "seconds": r.runtime,
                }
                for r in self.rows
            ],
            "skipped": list(self.skipped),
            "summary": self.summary,
        }


def merge_reports(*reports: ValidationReport) -> ValidationReport:
    rows = []
    skipped = []
    for rep in reports:
        rows.extend(rep.rows)
        skipped.extend(rep.skipped)
    return ValidationReport(tuple(rows), tuple(skipped))


def _check(rows, skipped, instance, parameter, formula, oracle):
    """Time formula() against oracle() as one row, or skip it at the oracle's cap.

    Returns the oracle value, or None when the check was skipped.
    """
    t0 = perf_counter()
    try:
        ov = oracle()
    except CapExceeded:
        skipped.append(f"{instance}/{parameter}")
        return None
    rows.append(CheckRow(instance, parameter, formula(), ov, perf_counter() - t0))
    return ov


def _sorted_report(rows, skipped) -> ValidationReport:
    rows.sort(key=lambda r: (r.instance, r.parameter))
    return ValidationReport(tuple(rows), tuple(skipped))


def caterpillar_suite(
    spine_max: int = 8,
    random_count: int = 500,
    seed: int = DEFAULT_SEED,
    max_n: int | None = None,
    cap: int | None = None,
) -> ValidationReport:
    """Exhaustive spine profiles plus random caterpillars, three rows each.

    The exhaustive part realizes every capped degree profile with up to
    spine_max positions, once with the default leaf counts and once with
    three leaves on each profile-4 position; the random caterpillars have at
    most min(14, max_n) vertices.  max_n, when given, drops larger instances
    from the corpus entirely; the oracle caps only skip individual checks.
    One p3_parameters_bruteforce search per instance gives all three oracle
    values, and each row's seconds count that search plus its formula.
    """
    rows: list[CheckRow] = []
    skipped: list[str] = []
    plan = [
        ("geodetic_number", geodetic_number),
        ("hull_number", hull_number),
        ("percolation_time", caterpillar_percolation_time),
    ]

    def handle(instance, g):
        if max_n is not None and g.n > max_n:
            return
        struct = recognize_caterpillar(g)
        if struct is None:
            raise AssertionError(f"{instance}: generated graph is not a caterpillar")
        t0 = perf_counter()
        try:
            oracle = p3_parameters_bruteforce(g, cap)
        except CapExceeded:
            oracle = (None,) * len(plan)
        search = perf_counter() - t0
        for (param, ffn), ov in zip(plan, oracle):
            if ov is None:
                skipped.append(f"{instance}/{param}")
                continue
            t0 = perf_counter()
            rows.append(CheckRow(instance, param, ffn(struct), ov, search + perf_counter() - t0))

    for rds in spine_sequences(spine_max):
        tag = "".join(str(d) for d in rds)
        handle(f"cat-ex-{tag}", realize_caterpillar(rds))
        heavy = {i: 3 for i, d in enumerate(rds) if d == 4}
        if heavy:
            handle(f"cat-ex4-{tag}", realize_caterpillar(rds, heavy))

    rng = random.Random(seed)
    random_max_n = 14 if max_n is None else min(14, max_n)
    for i in range(random_count):
        handle(f"cat-rnd-{i:04d}", random_caterpillar(rng, random_max_n))

    return _sorted_report(rows, skipped)


def uig_suite(
    count: int = 300,
    max_n: int | None = None,
    seed: int = DEFAULT_SEED,
    cap: int | None = None,
) -> ValidationReport:
    """Random unit interval graphs of three flavors, spreading time rows.

    Instances have at most max_n vertices, 10 by default.  One third is
    sampled from random points on the line, one third from loosely
    overlapping clique chains (these carry cut vertices), one third from
    2-connected chains (these carry singular positions).  2-connected
    instances get an extra row for the diameter shortcut, checked against
    the same oracle value.
    """
    rows: list[CheckRow] = []
    skipped: list[str] = []
    rng = random.Random(seed)
    max_n = 10 if max_n is None else max_n
    makers = [
        ("uig-rnd", lambda: random_unit_interval_graph(rng, rng.randint(2, max_n))),
        ("uig-chain", lambda: random_clique_chain(rng, rng.randint(3, max_n))),
        ("uig-2conn", lambda: random_biconnected_chain(rng, rng.randint(3, max_n))),
    ]
    per = [count - 2 * (count // 3), count // 3, count // 3]
    for (prefix, make), quota in zip(makers, per):
        for i in range(quota):
            instance = f"{prefix}-{i:04d}"
            g, order = make()
            model = build_model(g, order)
            ov = _check(rows, skipped, instance, "percolation_time",
                        lambda: unit_interval_percolation_time(model),
                        lambda: percolation_time_bruteforce(g, cap))
            if ov is not None and model.biconnected:
                _check(rows, skipped, instance, "percolation_time_biconnected",
                       lambda: percolation_time_biconnected(model), lambda: ov)

    return _sorted_report(rows, skipped)


def idempotence_suite(
    max_n: int | None = None,
    seed: int = DEFAULT_SEED,
    samples_per_size: int = _SAMPLES_PER_SIZE,
    cap: int | None = None,
) -> ValidationReport:
    """Pattern-predicted interval idempotence against the exhaustive check.

    Connected graphs up to min(max_n, 7) vertices (max_n is 6 by default)
    are enumerated completely; larger sizes are sampled.  Booleans are
    recorded as 0/1 rows keyed by graph6 string.
    """
    rows: list[CheckRow] = []
    skipped: list[str] = []

    for level in idempotence_corpus(6 if max_n is None else max_n, seed, samples_per_size):
        for g in printed_graphs(level):
            _check(rows, skipped, f"g6-{to_graph6(g)}", "interval_idempotent",
                   lambda: int(interval_idempotent_by_patterns(g)),
                   lambda: int(interval_idempotent_bruteforce(g, cap)))

    return _sorted_report(rows, skipped)


def full_suite(
    seed: int = DEFAULT_SEED, max_n: int | None = None, cap: int | None = None
) -> ValidationReport:
    return merge_reports(
        caterpillar_suite(seed=seed, max_n=max_n, cap=cap),
        uig_suite(seed=seed, max_n=max_n, cap=cap),
        idempotence_suite(seed=seed, max_n=max_n, cap=cap),
    )
