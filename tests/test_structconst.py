from array import array
from fractions import Fraction

import pytest

from bvl import structconst
from bvl.catalog import build_group
from bvl.chartab import TableError, character_table
from bvl.cli import run
from bvl.cyclotomic import Cyclo
from bvl.permgroup import ClassMap
from bvl.structconst import (
    char_bound_check,
    gow_scan,
    point_count_probe,
    regular_semisimple_classes,
    semisimple_classes,
    structure_constant_brute,
    structure_constant_formula,
)


def _setup(spec):
    G = build_group(spec)
    return G, G.conjugacy_data(), character_table(G)


def test_formula_examples():
    _, _, T = _setup("S3")
    assert structure_constant_formula(T, "2a", "2a", "3a") == 2
    # fixing x = 1 forces z = y^-1, so n(1a, C, C^-1) = |C| and 0 otherwise
    G, cd, TA = _setup("A5")
    assert structure_constant_formula(TA, "1a", "5a", "5a") == 12
    assert structure_constant_formula(TA, "1a", "5a", "5b") == 0
    assert structure_constant_formula(TA, "1a", "1a", "1a") == 1


def test_brute_examples():
    G, cd, _ = _setup("S3")
    assert structure_constant_brute(G, "2a", "2a", "3a") == 2
    G, cd, _ = _setup("A5")
    assert cd.by_label("5a").inverse_class == "5a"
    assert structure_constant_brute(G, "1a", "5a", "5a") == 12
    assert structure_constant_brute(G, "1a", "1a", "1a") == 1


def test_oracle_equivalence_small_catalog():
    for spec in ("S3", "A4", "A5", "L3:2"):
        G, cd, T = _setup(spec)
        labels = [c.label for c in cd.classes]
        for c1 in labels:
            for c2 in labels:
                for c3 in labels:
                    nf = structure_constant_formula(T, c1, c2, c3)
                    nb = structure_constant_brute(G, c1, c2, c3)
                    assert nf == nb, (spec, c1, c2, c3)


def test_rotation_invariance_of_triple_counts():
    # n(C1,C2,C3) * |C1| counts solutions of xyz = 1, invariant under rotation
    G, cd, T = _setup("A5")
    labels = [c.label for c in cd.classes]
    for c1 in labels:
        for c2 in labels:
            for c3 in labels:
                triples = [
                    structure_constant_formula(T, a, b, c) * cd.by_label(a).size
                    for a, b, c in ((c1, c2, c3), (c2, c3, c1), (c3, c1, c2))
                ]
                assert len(set(triples)) == 1
                brute = structure_constant_brute(G, c1, c2, c3)
                assert triples[0] == brute * cd.by_label(c1).size


def test_semisimple_classification():
    G, cd, _ = _setup("L2:7")
    assert regular_semisimple_classes(G) == ["2a", "3a", "4a"]
    assert semisimple_classes(G) == ["2a", "3a", "4a"]
    G, cd, _ = _setup("L2:8")
    assert regular_semisimple_classes(G) == ["3a", "7a", "7b", "7c", "9a", "9b", "9c"]
    G, cd, _ = _setup("L3:3")
    # the involution class has a GL2-type centralizer (order divisible by 3)
    rs = regular_semisimple_classes(G)
    assert "2a" not in rs
    assert rs == ["4a", "8a", "8b", "13a", "13b", "13c", "13d"]
    assert "2a" in semisimple_classes(G)


def test_gow_scan_positive():
    for spec in ("L2:7", "L2:11"):
        G, cd, T = _setup(spec)
        report = gow_scan(G)
        assert report.all_positive
        assert report.triples_checked == len(report.regular_classes) ** 2 * len(
            report.semisimple_classes
        )


def test_gow_scan_reports_a_zero_count(monkeypatch):
    G, _, _ = _setup("L2:7")
    brute = structconst.structure_constant_brute
    monkeypatch.setattr(structconst, "structure_constant_brute",
                        lambda G, *t: 0 if t == ("3a", "4a", "2a") else brute(G, *t))
    report = gow_scan(G)
    assert (report.violations, report.all_positive) == ([("3a", "4a", "2a")], False)


def test_gow_scan_rejects_non_lie_group():
    G = build_group("A7")
    with pytest.raises(ValueError):
        gow_scan(G)


def test_char_bound_examples():
    G, cd, T = _setup("L2:9")
    report = char_bound_check(G, T)
    assert report.passed and report.bound == 2
    assert abs(report.per_class_max["2a"] - 2.0) < 1e-9  # degree-10 character hits the bound
    G, cd, T = _setup("L2:7")
    assert char_bound_check(G, T).passed
    G, cd, T = _setup("L3:3")
    report = char_bound_check(G, T)
    assert report.passed and report.bound == 6


def test_point_count_probe_l3_2():
    G, cd, _ = _setup("L3:2")
    report = point_count_probe(G, "7a", "7a", "7b")
    assert report.class_size == 24
    assert report.exact_count == report.n_value * 24
    assert report.predicted == 2**10 == 1024
    assert report.ratio == Fraction(report.exact_count, 1024)
    # the probe reads T; the character formula gives the same n
    nb = structure_constant_brute(G, "7a", "7a", "7b")
    assert report.n_value == nb == structure_constant_formula(character_table(G), "7a", "7a", "7b")


def test_point_count_probe_l3_3():
    G, cd, _ = _setup("L3:3")
    report = point_count_probe(G, "13a", "13b", "13c")
    assert report.predicted == 3**10 == 59049
    assert report.exact_count == report.n_value * cd.by_label("13a").size
    assert report.exact_count > 0


def test_point_count_rejects_rank_one_and_bad_classes():
    G, cd, _ = _setup("L2:11")
    with pytest.raises(ValueError, match="rank"):
        point_count_probe(G, "5a", "5a", "5b")
    G, cd, _ = _setup("L3:2")
    with pytest.raises(ValueError, match="regular semisimple"):
        point_count_probe(G, "2a", "7a", "7b")


@pytest.mark.parametrize("spec", ["L2:7", "L2:11", "L3:2", "L3:3"])
def test_verdicts_read_the_counts_the_formula_gives(spec, monkeypatch):
    # gow_scan and point_count_probe read n from the triple counts; every n
    # they read is the character formula's
    G, cd, T = _setup(spec)
    read = []
    brute = structconst.structure_constant_brute

    def recorded(G, c1, c2, c3):
        n = brute(G, c1, c2, c3)
        read.append(((c1, c2, c3), n))
        return n

    monkeypatch.setattr(structconst, "structure_constant_brute", recorded)
    report = gow_scan(G)
    assert len(read) == report.triples_checked > 0
    if G.meta.rank > 1:
        regular = regular_semisimple_classes(G)
        for triple in ((a, b, c) for a in regular for b in regular for c in regular):
            assert point_count_probe(G, *triple).n_value == read[-1][1]
        assert len(read) == report.triples_checked + len(regular) ** 3
    for triple, n in read:
        assert n == structure_constant_formula(T, *triple), (spec, triple)


def test_verdicts_need_no_character_table(monkeypatch, capsys):
    G = build_group("L3:3")
    argv = ["pointcount", "--group", "L3:3", "--classes", "13a,13a,13b"]
    assert run(argv) == 0
    expected = capsys.readouterr().out

    def no_table(G):
        raise AssertionError("character_table called")

    monkeypatch.setattr("bvl.chartab.character_table", no_table)  # cli calls it through chartab
    assert (run(argv), capsys.readouterr().out) == (0, expected)
    assert gow_scan(G).all_positive


def test_brute_route_refuses_a_count_not_divisible_by_c1(monkeypatch, capsys):
    # n = T / |C1| exactly, or an internal fault (exit 4): never floored.
    # Every T one above the count is no longer a multiple of |C1| > 1.
    counts = ClassMap.triple_counts
    monkeypatch.setattr(ClassMap, "triple_counts",
                        lambda self, a, b: array("q", (t + 1 for t in counts(self, a, b))))
    code = run(["struct", "--group", "S3", "--classes", "2a,2a,3a", "--method", "brute"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "error: internal: TableError: T('2a', '2a', '3a') = 7 is not a multiple of |C1| = 3\n"
    with pytest.raises(TableError, match="not a multiple"):
        point_count_probe(build_group("L3:2"), "7a", "7a", "7b")


def test_formula_route_refuses_an_inexact_or_negative_quotient(monkeypatch, capsys):
    # n = S |C2||C3| / |G|^2, S a rational integer, the quotient exact and
    # nonnegative, or an internal fault (exit 4): never rounded.  S3 has
    # degrees 1, 1, 2 and S(3a, 3a, 3a) = 6 + 6 - 3 = 9, so n = 9 * 4 / 36 = 1.
    table = character_table

    def doctored(G):
        # degree 2 read as 3: the weight |G| / chi(1) falls to 2, S rises to
        # 10, and 10 * 4 / 36 is not an integer
        T = table(G)
        T.degrees = [3 if d == 2 else d for d in T.degrees]
        return T

    monkeypatch.setattr("bvl.chartab.character_table", doctored)  # cli calls it through chartab
    code = run(["struct", "--group", "S3", "--classes", "3a,3a,3a", "--method", "formula"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: internal: TableError: structure constant ('3a', '3a', '3a') "
                   "is not a nonnegative integer: 1 + 4/36\n")

    T = table(build_group("S3"))
    assert structure_constant_formula(T, "3a", "3a", "3a") == 1
    T.rows = [[-v for v in row] for row in T.rows]  # every triple product changes sign
    with pytest.raises(TableError, match=r"nonnegative integer: -1 \+ 0/36"):
        structure_constant_formula(T, "3a", "3a", "3a")
    T = table(build_group("S3"))
    assert (T.degrees[-1], structure_constant_formula(T, "1a", "1a", "3a")) == (2, 0)
    T.rows[-1][T.cmap.by_label("3a").index] = Cyclo.zeta(T.conductor)
    with pytest.raises(TableError, match="non-rational"):
        structure_constant_formula(T, "1a", "1a", "3a")
