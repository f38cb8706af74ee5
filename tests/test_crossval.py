import inspect

from p3conv.crossval import (
    caterpillar_suite,
    idempotence_suite,
    merge_reports,
    uig_suite,
)
from p3conv.graphio import to_graph6
from p3conv.hereditary import crosscheck_interval_idempotence


def test_caterpillar_suite_small():
    rep = caterpillar_suite(spine_max=5, random_count=30)
    assert rep.rows
    assert rep.disagreements == ()
    assert {r.parameter for r in rep.rows} == {
        "geodetic_number",
        "hull_number",
        "percolation_time",
    }
    assert all(r.agree for r in rep.rows)


def test_caterpillar_suite_respects_caps():
    rep = caterpillar_suite(spine_max=5, random_count=0, cap=8)
    assert rep.skipped
    assert all("/" in entry for entry in rep.skipped)
    assert rep.disagreements == ()


def test_uig_suite_small():
    rep = uig_suite(count=30, max_n=8)
    assert rep.disagreements == ()
    prefixes = {r.instance.split("-")[0] + "-" + r.instance.split("-")[1] for r in rep.rows}
    assert prefixes == {"uig-rnd", "uig-chain", "uig-2conn"}
    # 2-connected instances get a second row for the shortcut computation
    assert any(r.parameter == "percolation_time_biconnected" for r in rep.rows)


def test_idempotence_suite_is_clean_below_five_vertices():
    rep = idempotence_suite(max_n=4)
    assert rep.disagreements == ()
    assert rep.skipped == ()


def test_idempotence_suite_finds_the_three_gap_graphs():
    rep = idempotence_suite(max_n=6)
    found = sorted({r.instance for r in rep.disagreements})
    assert found == ["g6-D]_", "g6-EFj?", "g6-E]Q?"]


def test_propcheck_and_property_p_sample_the_same_corpus():
    def samples(f):
        return inspect.signature(f).parameters["samples_per_size"].default

    assert samples(idempotence_suite) == samples(crosscheck_interval_idempotence) == 150


def test_idempotence_suite_skips_in_enumeration_order(connected_graphs_up_to_7):
    rep = idempotence_suite(max_n=7, cap=5)
    assert rep.skipped == tuple(
        f"g6-{to_graph6(g)}/interval_idempotent" for g in connected_graphs_up_to_7 if g.n > 5
    )
    assert sorted({r.instance for r in rep.disagreements}) == ["g6-D]_"]


def test_report_shapes():
    rep = idempotence_suite(max_n=4)
    d = rep.to_dict()
    assert set(d) == {"rows", "skipped", "summary"}
    assert d["summary"]["rows"] == len(rep.rows)
    text = rep.to_text()
    assert text.strip().endswith(
        f"# summary: rows={len(rep.rows)} agreeing={len(rep.rows)} disagreeing=0 skipped=0"
    )
    assert rep.summary["disagreeing"] == 0


def test_merge_reports():
    a = idempotence_suite(max_n=3)
    b = idempotence_suite(max_n=4)
    merged = merge_reports(a, b)
    assert len(merged.rows) == len(a.rows) + len(b.rows)
    assert len(merged.skipped) == len(a.skipped) + len(b.skipped)
