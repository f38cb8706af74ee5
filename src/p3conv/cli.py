"""Command line interface.

Exit codes: 0 on success and agreement, 1 on usage or input errors, 2 when a
formula and an oracle (or a predictor and a direct check) disagree, 3 when a
requested computation exceeds a size cap.
"""

import argparse
import functools
import sys
from pathlib import Path

# Each command imports the modules it runs when it runs, so that starting
# the tool, or a command that needs no oracle, loads nothing more.


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for real
    # disagreements, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Each generate kind with its default --size, a spine length or vertex count.
_GENERATE_SIZES = {
    "caterpillar-exhaustive": 5,
    "caterpillar-random": 14,
    "uig-random": 8,
    "uig-2connected-random": 8,
    "all-connected": 5,
}

# Each crossval suite with its function in crossval, looked up when the
# command runs.
_CROSSVAL_SUITES = {
    "caterpillar": "caterpillar_suite",
    "uig": "uig_suite",
    "property-p": "idempotence_suite",
    "all": "full_suite",
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    p = _Parser(
        prog="p3conv",
        description=(
            "Geodetic number, hull number and percolation time of caterpillar "
            "trees and unit interval graphs, with brute-force cross-checks."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify one graph document and print its parameters")
    a.add_argument("path", help="file containing a single graph document")
    a.add_argument("--oracle", action="store_true", help="also run the brute-force oracles")
    a.add_argument("--max-oracle-n", type=int, default=None, help="override the oracle size caps")
    a.add_argument("--format", choices=("text", "object"), default="text")
    a.set_defaults(func=_cmd_analyze)

    g = sub.add_parser("generate", help="write graph documents to stdout")
    g.add_argument("kind", choices=tuple(_GENERATE_SIZES))
    g.add_argument("--size", type=int, default=None, help="spine length or vertex count, by kind")
    g.add_argument("--count", type=int, default=10, help="how many graphs, for random kinds")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("crossval", help="validate formulas against oracles over a corpus")
    c.add_argument("suite", choices=tuple(_CROSSVAL_SUITES))
    c.add_argument("--max-n", type=int, default=None, help="bound the instance sizes")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--max-oracle-n", type=int, default=None, help="override the oracle size caps")
    c.add_argument("--format", choices=("text", "object"), default="text")
    c.set_defaults(func=_cmd_crossval)

    pc = sub.add_parser("propcheck", help="cross-check the idempotence pattern predictor")
    pc.add_argument("--max-n", type=int, default=6, help="largest vertex count to examine (at most 9)")
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--format", choices=("text", "object"), default="text")
    pc.set_defaults(func=_cmd_propcheck)

    return p


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json_text(value, depth: int = 0) -> str:
    """Exactly json.dumps(value, indent=2, sort_keys=True), dict keys being strings.

    json.dumps takes its C encoder only without an indent, so the nesting is
    written here; a scalar, and a list or dict holding only scalars, goes
    through the C encoder whole, with the newline and indent as its item
    separator.
    """
    import json

    if isinstance(value, dict):
        brackets, members = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, members = "[]", value
    else:
        return json.dumps(value)
    if not value:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    if set(map(type, members)) <= _JSON_SCALARS:
        body = json.dumps(value, separators=("," + pad, ": "), sort_keys=True)[1:-1]
    elif brackets == "{}":
        body = ("," + pad).join(
            f"{json.dumps(k)}: {_json_text(v, depth + 1)}" for k, v in sorted(value.items())
        )
    else:
        body = ("," + pad).join(_json_text(v, depth + 1) for v in value)
    return brackets[0] + pad + body + pad[:-2] + brackets[1]


def _print_payload(payload: dict, fmt: str) -> None:
    if fmt == "object":
        print(_json_text(payload))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                print(f"{key}.{k2}: {_fmt(v2)}")
        else:
            print(f"{key}: {_fmt(value)}")


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        # Payload lists hold scalars, or pairs such as the clique intervals.
        if value and isinstance(value[0], (list, tuple)):
            value = [x for pair in value for x in pair]
        return " ".join(map(str, value))
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _seed(args) -> int:
    """--seed, or generators.DEFAULT_SEED as it is when the command runs."""
    from .generators import DEFAULT_SEED

    return DEFAULT_SEED if args.seed is None else args.seed


def _cmd_analyze(args) -> int:
    from .caterpillar import (
        geodetic_number,
        hull_number,
        percolation_time as caterpillar_percolation_time,
        recognize_caterpillar,
    )
    from .graphio import parse_document

    doc = parse_document(Path(args.path).read_text())
    g = doc.to_graph()
    payload: dict = {}
    if doc.name:
        payload["name"] = doc.name
    payload["vertices"] = g.n
    payload["edge_count"] = g.edge_count

    struct = None
    model = None
    # unit_interval is imported only by documents that reach it.
    if doc.order is not None:
        from .unit_interval import build_model

        model = build_model(g, doc.order)
        cls = "unit-interval"
    else:
        struct = recognize_caterpillar(g) if g.n >= 2 else None
        if struct is not None:
            cls = "caterpillar"
        else:
            from .unit_interval import recognize_unit_interval

            model = recognize_unit_interval(g)
            cls = "unit-interval" if model is not None else "other"
    payload["class"] = cls

    formula_values: dict = {}
    if cls == "caterpillar":
        payload["spine"] = list(struct.spine)
        payload["degree_profile"] = list(struct.reduced_degrees)
        payload["leaf_count"] = struct.leaf_count
        payload["factors"] = ["".join(str(d) for d in f) for f in struct.factorization.factors]
        payload["spine_times"] = list(struct.percolation.times)
        formula_values = {
            "geodetic_number": geodetic_number(struct),
            "hull_number": hull_number(struct),
            "percolation_time": caterpillar_percolation_time(struct),
        }
        payload.update(formula_values)
    elif cls == "unit-interval":
        from .unit_interval import cut_segments, singular_positions

        payload["order"] = list(model.order)
        payload["cliques"] = [[a, b] for a, b in model.cliques]
        payload["singular_positions"] = list(singular_positions(model))
        if model.connected:
            time = 0
            if g.n >= 3:
                segments = cut_segments(model)
                payload["segments"] = [
                    f"{s.lo}..{s.hi} {s.case_tag} t={s.time}" for s in segments
                ]
                time = max(s.time for s in segments)
            formula_values = {"percolation_time": time}
            payload.update(formula_values)
            if model.biconnected:
                # A 2-connected graph is one two_anchors segment, timed by
                # the split diameter.
                payload["split_diameter"] = time
        else:
            payload["connected"] = False
    else:
        if not args.oracle:
            print(
                "error: graph is neither a caterpillar nor a unit interval graph; "
                "rerun with --oracle for brute-force values",
                file=sys.stderr,
            )
            return 1

    exit_code = 0
    if args.oracle:
        from .hereditary import find_forbidden_patterns
        from .oracle import (
            DEFAULT_HULL_CAP,
            DEFAULT_TIME_CAP,
            _require_within,
            p3_parameters_bruteforce,
        )

        # Refuse before any search, the hull cap first as
        # p3_parameters_bruteforce does; a connected graph needs its time.
        connected = g.is_connected()
        _require_within(g, args.max_oracle_n, DEFAULT_HULL_CAP, "geodetic number search")
        if connected:
            _require_within(g, args.max_oracle_n, DEFAULT_TIME_CAP, "percolation time search")
        if cls == "other":
            payload["forbidden_patterns"] = list(find_forbidden_patterns(g))
        oracle_values = p3_parameters_bruteforce(g, args.max_oracle_n)._asdict()
        if not connected:
            del oracle_values["percolation_time"]
        payload["oracle"] = oracle_values
        agreement = {
            key: formula_values[key] == oracle_values[key]
            for key in formula_values
            if key in oracle_values
        }
        if agreement:
            payload["agreement"] = agreement
            if not all(agreement.values()):
                exit_code = 2

    _print_payload(payload, args.format)
    return exit_code


def _cmd_generate(args) -> int:
    import random

    from .generators import (
        connected_graphs,
        random_biconnected_chain,
        random_caterpillar,
        random_unit_interval_graph,
        realize_caterpillar,
        spine_sequences,
    )
    from .graphio import document_for, serialize_documents

    if args.count < 0:
        raise ValueError("generate needs --count of at least 0")
    rng = random.Random(_seed(args))
    kind = args.kind
    size = _GENERATE_SIZES[kind] if args.size is None else args.size
    docs = []
    if kind == "caterpillar-exhaustive":
        if size < 2:
            raise ValueError("caterpillar-exhaustive needs --size of at least 2")
        for rds in spine_sequences(size):
            tag = "".join(str(d) for d in rds)
            docs.append(document_for(realize_caterpillar(rds), name=f"caterpillar-{tag}"))
    elif kind == "caterpillar-random":
        for i in range(args.count):
            docs.append(document_for(random_caterpillar(rng, size), name=f"caterpillar-random-{i}"))
    elif kind == "uig-random":
        for i in range(args.count):
            g, order = random_unit_interval_graph(rng, size)
            docs.append(document_for(g, order=order, name=f"uig-random-{i}"))
    elif kind == "uig-2connected-random":
        for i in range(args.count):
            g, order = random_biconnected_chain(rng, size)
            docs.append(document_for(g, order=order, name=f"uig-2connected-{i}"))
    elif kind == "all-connected":
        if not 1 <= size <= 7:
            raise ValueError("all-connected enumeration supports sizes 1 through 7")
        for i, g in enumerate(connected_graphs(size)):
            docs.append(document_for(g, name=f"connected-{size}-{i:03d}"))
    sys.stdout.write(serialize_documents(docs))
    return 0


def _cmd_crossval(args) -> int:
    least = {"caterpillar": 2, "uig": 3, "all": 3}.get(args.suite)
    if least is not None and args.max_n is not None and args.max_n < least:
        raise ValueError(f"crossval {args.suite} needs --max-n of at least {least}")
    from . import crossval

    suite = getattr(crossval, _CROSSVAL_SUITES[args.suite])
    report = suite(seed=_seed(args), max_n=args.max_n, cap=args.max_oracle_n)

    if args.format == "object":
        print(_json_text(report.to_dict()))
    else:
        sys.stdout.write(report.to_text())
    if report.skipped:
        print(
            f"warning: {len(report.skipped)} checks skipped beyond the oracle cap; "
            "raise --max-oracle-n to include them",
            file=sys.stderr,
        )
    return 2 if report.disagreements else 0


def _cmd_propcheck(args) -> int:
    from .hereditary import crosscheck_interval_idempotence

    report = crosscheck_interval_idempotence(max_n=args.max_n, seed=_seed(args))
    if args.format == "object":
        payload = {
            "max_n": report.max_n,
            "checked": report.checked,
            "forward_violations": [d._asdict() for d in report.forward_violations],
            "reverse_findings": [d._asdict() for d in report.reverse_findings],
        }
        print(_json_text(payload))
    else:
        print(f"graphs checked: {report.checked} (sizes up to {report.max_n})")
        print(f"forward violations (pattern present, still idempotent): {len(report.forward_violations)}")
        print(f"reverse findings (pattern-free, not idempotent): {len(report.reverse_findings)}")
        for d in list(report.forward_violations) + list(report.reverse_findings):
            kind = "forward" if d.idempotent else "reverse"
            edges = " ".join(f"{u}-{w}" for u, w in d.edges)
            print(f"  [{kind}] n={d.vertex_count} graph6={d.graph6} edges: {edges}")
    return 2 if not report.clean else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Imported here, so that a command that never runs an oracle does
        # not load it.
        from .oracle import CapExceeded

        if not isinstance(exc, CapExceeded):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
