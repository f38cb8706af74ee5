"""Shared pytest plumbing.

The acceptance module registers one line per criterion here; the hook
reprints them after the run so the verdicts are visible without -s.
The exhaustive graph corpus is built once per session and shared.
"""

import pytest

_criterion_lines: list[str] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> str:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:02d}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    _criterion_lines.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def connected_graphs_up_to_7():
    """Every connected graph on 1 to 7 vertices, up to isomorphism (996 graphs)."""
    from p3conv.generators import connected_graphs

    return [g for n in range(1, 8) for g in connected_graphs(n)]
