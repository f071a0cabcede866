from fractions import Fraction

import pytest

from bvl.catalog import build_group, lie_meta, parse_spec
from bvl.chartab import character_table
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
    return G, G.conjugacy_data(), lie_meta(parse_spec(spec)), character_table(G)


def test_formula_examples():
    _, _, _, T = _setup("S3")
    assert structure_constant_formula(T, "2a", "2a", "3a") == 2
    # fixing x = 1 forces z = y^-1, so n(1a, C, C^-1) = |C| and 0 otherwise
    G, cd, _, TA = _setup("A5")
    assert structure_constant_formula(TA, "1a", "5a", "5a") == 12
    assert structure_constant_formula(TA, "1a", "5a", "5b") == 0
    assert structure_constant_formula(TA, "1a", "1a", "1a") == 1


def test_brute_examples():
    G, cd, _, _ = _setup("S3")
    assert structure_constant_brute(G, "2a", "2a", "3a") == 2
    G, cd, _, _ = _setup("A5")
    assert cd.by_label("5a").inverse_class == "5a"
    assert structure_constant_brute(G, "1a", "5a", "5a") == 12
    assert structure_constant_brute(G, "1a", "1a", "1a") == 1


def test_oracle_equivalence_small_catalog():
    for spec in ("S3", "A4", "A5", "L3:2"):
        G, cd, _, T = _setup(spec)
        labels = [c.label for c in cd.classes]
        for c1 in labels:
            for c2 in labels:
                for c3 in labels:
                    nf = structure_constant_formula(T, c1, c2, c3)
                    nb = structure_constant_brute(G, c1, c2, c3)
                    assert nf == nb, (spec, c1, c2, c3)


def test_rotation_invariance_of_triple_counts():
    # n(C1,C2,C3) * |C1| counts solutions of xyz = 1, invariant under rotation
    G, cd, _, T = _setup("A5")
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
    G, cd, meta, _ = _setup("L2:7")
    assert regular_semisimple_classes(G, meta) == ["2a", "3a", "4a"]
    assert semisimple_classes(G, meta) == ["2a", "3a", "4a"]
    G, cd, meta, _ = _setup("L2:8")
    assert regular_semisimple_classes(G, meta) == ["3a", "7a", "7b", "7c", "9a", "9b", "9c"]
    G, cd, meta, _ = _setup("L3:3")
    # the involution class has a GL2-type centralizer (order divisible by 3)
    rs = regular_semisimple_classes(G, meta)
    assert "2a" not in rs
    assert rs == ["4a", "8a", "8b", "13a", "13b", "13c", "13d"]
    assert "2a" in semisimple_classes(G, meta)


def test_gow_scan_positive():
    for spec in ("L2:7", "L2:11"):
        G, cd, meta, T = _setup(spec)
        report = gow_scan(G, meta, T)
        assert report.all_positive
        assert report.triples_checked == len(report.regular_classes) ** 2 * len(
            report.semisimple_classes
        )


def test_gow_scan_rejects_non_lie_group():
    G = build_group("A7")
    T = character_table(G)
    with pytest.raises(ValueError):
        gow_scan(G, None, T)


def test_char_bound_examples():
    G, cd, meta, T = _setup("L2:9")
    report = char_bound_check(G, meta, T)
    assert report.passed and report.bound == 2
    assert abs(report.per_class_max["2a"] - 2.0) < 1e-9  # degree-10 character hits the bound
    G, cd, meta, T = _setup("L2:7")
    assert char_bound_check(G, meta, T).passed
    G, cd, meta, T = _setup("L3:3")
    report = char_bound_check(G, meta, T)
    assert report.passed and report.bound == 6


def test_point_count_probe_l3_2():
    G, cd, meta, T = _setup("L3:2")
    report = point_count_probe(G, meta, T, "7a", "7a", "7b")
    assert report.class_size == 24
    assert report.exact_count == report.n_value * 24
    assert report.predicted == 2**10 == 1024
    assert report.ratio == Fraction(report.exact_count, 1024)
    # formula and brute force agree on the probed triple
    nb = structure_constant_brute(G, "7a", "7a", "7b")
    assert report.n_value == nb


def test_point_count_probe_l3_3():
    G, cd, meta, T = _setup("L3:3")
    report = point_count_probe(G, meta, T, "13a", "13b", "13c")
    assert report.predicted == 3**10 == 59049
    assert report.exact_count == report.n_value * cd.by_label("13a").size
    assert report.exact_count > 0


def test_point_count_rejects_rank_one_and_bad_classes():
    G, cd, meta, T = _setup("L2:11")
    with pytest.raises(ValueError, match="rank"):
        point_count_probe(G, meta, T, "5a", "5a", "5b")
    G, cd, meta, T = _setup("L3:2")
    with pytest.raises(ValueError, match="regular semisimple"):
        point_count_probe(G, meta, T, "2a", "7a", "7b")
