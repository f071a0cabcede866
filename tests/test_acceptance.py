"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see every line.  Criterion 6
is expected to FAIL: it asserts that some order-8 class of M11 has the
all-pairs generating property with the order-5 class, but the maximal point
stabilizer M10 contains elements of both orders, so counterexample pairs
exist in both order-8 classes.  The companion test pins the verified facts.
"""

import functools
import subprocess
import sys
import time
from fractions import Fraction

from bvl.beauville import (
    STATUS_CERTIFICATE,
    STATUS_NONE_EXHAUSTED,
    all_pairs_generate,
    search_beauville,
    verify_certificate,
)
from bvl.catalog import build_group, catalog_specs, classical_order, parse_spec
from bvl.chartab import character_table, verify_orthogonality
from bvl.cli import run as cli_run
from bvl.permgroup import subgroup_order
from bvl.structconst import (
    char_bound_check,
    gow_scan,
    point_count_probe,
    regular_semisimple_classes,
    structure_constant_brute,
    structure_constant_formula,
)

ORACLE_GROUPS = ("S3", "A4", "A5", "A6", "L2:7", "L2:8", "L2:11", "L2:13", "L3:2")
SEARCH_GROUPS = ("L2:7", "L2:8", "L2:11", "L2:13", "A6")


def criterion(number, description, limit_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.monotonic() - start
                print(f"ACCEPTANCE criterion {number:02d} [FAIL] {description} ({elapsed:.1f}s)")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE criterion {number:02d} [PASS] {description} ({elapsed:.1f}s)")
            assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"

        return inner

    return wrap


def catalog_groups_up_to_1e5():
    return [s for s in catalog_specs() if classical_order(parse_spec(s)) <= 100_000]


@criterion(1, "oracle equivalence (formula = brute) over nine groups", 300)
def test_criterion_01_oracle_equivalence():
    for spec in ORACLE_GROUPS:
        G = build_group(spec)
        cd = G.conjugacy_data()
        T = character_table(G)
        labels = [c.label for c in cd.classes]
        for c1 in labels:
            for c2 in labels:
                for c3 in labels:
                    nf = structure_constant_formula(T, c1, c2, c3)
                    nb = structure_constant_brute(G, c1, c2, c3)
                    assert nf == nb, (spec, c1, c2, c3, nf, nb)


@criterion(2, "character-table validity for all catalog groups <= 1e5 plus M11, M12", 600)
def test_criterion_02_character_tables():
    specs = catalog_groups_up_to_1e5() + ["file:m11.json", "file:m12.json"]
    for spec in specs:
        G = build_group(parse_spec(spec))
        T = character_table(G)
        assert sum(d * d for d in T.degrees) == G.order, spec
        assert verify_orthogonality(T), spec


@criterion(3, "A5 exhaustive search returns NONE_EXHAUSTED (exit 1)", 120)
def test_criterion_03_a5_negative(capsys):
    code = cli_run(["beauville", "search", "--group", "A5", "--strategy", "exhaustive"])
    out = capsys.readouterr().out
    assert code == 1
    assert "NONE_EXHAUSTED" in out
    result = search_beauville(build_group("A5"), strategy="EXHAUSTIVE_CLASSES")
    assert result.status == STATUS_NONE_EXHAUSTED


@criterion(4, "Beauville certificates for L2:7, L2:8, L2:11, L2:13, A6 re-verify", 3000)
def test_criterion_04_positive_searches():
    for spec in SEARCH_GROUPS:
        start = time.monotonic()
        G = build_group(spec)
        result = search_beauville(G, seed=0)
        assert result.status == STATUS_CERTIFICATE, spec
        ok, reason = verify_certificate(build_group(spec), result.certificate)
        assert ok, (spec, reason)
        assert time.monotonic() - start < 600, f"{spec} exceeded its 10-minute budget"


@criterion(5, "all-pairs witnesses: A6 (5-classes, 4a); L2:11, L2:13 torus classes", 300)
def test_criterion_05_generating_witnesses():
    A6 = build_group("A6")
    cd = A6.conjugacy_data()
    fives = [c.label for c in cd.classes if c.element_order == 5]
    fours = [c.label for c in cd.classes if c.element_order == 4]
    assert len(fives) == 2 and len(fours) == 1
    cert = all_pairs_generate(A6, fives, fours[0])
    assert cert.all_generate

    for q in (11, 13):
        G = build_group(f"L2:{q}")
        cdq = G.conjugacy_data()
        c_order, d_order = (q + 1) // 2, (q - 1) // 2
        c_classes = [c.label for c in cdq.classes if c.element_order == c_order]
        d_classes = [c.label for c in cdq.classes if c.element_order == d_order]
        assert c_classes and d_classes
        for c in c_classes:
            for d in d_classes:
                cert = all_pairs_generate(G, c, d)
                assert cert.all_generate, (q, c, d)


@criterion(6, "M11: an order-8 class X with n(5a,5a,X) > 0 whose (5a, X) pairs all generate", 600)
def test_criterion_06_m11_order8_allpairs():
    """Expected to fail: no order-8 class of M11 has the all-pairs property
    with 5a.  The maximal point stabilizer M10 contains elements of order 5
    and of order 8, so 90 of the 990 pairs per order-8 class land inside a
    conjugate of M10.  The companion test below pins the verified facts."""
    M11 = build_group(parse_spec("file:m11.json"))
    cd = M11.conjugacy_data()
    T = character_table(M11)
    eights = [c.label for c in cd.classes if c.element_order == 8]
    assert len(eights) == 2
    passing = []
    for x_label in eights:
        n = structure_constant_formula(T, "5a", "5a", x_label)
        cert = all_pairs_generate(M11, "5a", x_label)
        if n > 0 and cert.all_generate:
            passing.append(x_label)
    assert passing, (
        "no order-8 class X of M11 has n(5a,5a,X) > 0 with all (5a, X) pairs "
        "generating; the point stabilizer M10 meets 5a and both order-8 classes"
    )


def test_criterion_06_companion_verified_facts():
    """Pins the computed reality behind the criterion-6 failure: n(5a,5a,X)
    is 180 for both order-8 classes, each class has exactly 90 non-generating
    partners for the 5a representative (each generating a point stabilizer
    M10 of order 720), and the corrected witness pair (11a, 8a) does satisfy
    the all-pairs property."""
    M11 = build_group(parse_spec("file:m11.json"))
    cd = M11.conjugacy_data()
    T = character_table(M11)
    c5 = cd.by_label("5a").representative
    for x_label in ("8a", "8b"):
        assert structure_constant_formula(T, "5a", "5a", x_label) == 180
        orders = {}
        for d in cd.elements_of(cd.by_label(x_label).index):
            o = subgroup_order(M11, [c5, d])
            orders[o] = orders.get(o, 0) + 1
        assert orders == {720: 90, 7920: 900}, x_label
    assert all_pairs_generate(M11, "11a", "8a").all_generate
    assert all_pairs_generate(M11, "11a", "8b").all_generate


@criterion(7, "character bound |chi(s)| <= |W| + 1e-6 on PSL2/PSL3 families", 300)
def test_criterion_07_character_bound():
    for q in (5, 7, 8, 9, 11, 13):
        spec = f"L2:{q}"
        G = build_group(spec)
        report = char_bound_check(G, character_table(G))
        assert report.bound == 2 and report.passed, spec
        assert all(v <= 2 + 1e-6 for v in report.per_class_max.values())
    # the bound is attained (up to tolerance) in PSL2(9), so it cannot be tightened
    G = build_group("L2:9")
    report = char_bound_check(G, character_table(G))
    assert max(report.per_class_max.values()) > 2 - 1e-6
    for spec in ("L3:2", "L3:3"):
        G = build_group(spec)
        report = char_bound_check(G, character_table(G))
        assert report.bound == 6 and report.passed, spec


@criterion(8, "nonvanishing scan over regular semisimple class pairs", 300)
def test_criterion_08_gow_scan():
    for spec in ("L2:7", "L2:11", "L3:2", "L3:3"):
        G = build_group(spec)
        report = gow_scan(G)
        assert report.all_positive, (spec, report.violations)
        assert report.triples_checked > 0


@criterion(9, "point-count probe on PSL3(2), PSL3(3) regular semisimple triples", 120)
def test_criterion_09_point_count():
    for spec, q in (("L3:2", 2), ("L3:3", 3)):
        G = build_group(spec)
        cd = G.conjugacy_data()
        regular = regular_semisimple_classes(G)
        assert regular
        for c1 in regular:
            for c2 in regular:
                for c3 in regular:
                    report = point_count_probe(G, c1, c2, c3)
                    assert report.exact_count == report.n_value * cd.by_label(c1).size
                    assert report.exact_count > 0, (spec, c1, c2, c3)
                    assert report.predicted == q**10
                    assert report.ratio == Fraction(report.exact_count, q**10)


@criterion(10, "determinism and certificate round-trip from fresh processes", 600)
def test_criterion_10_determinism(tmp_path):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bvl.cli", *argv], capture_output=True, text=True
        )

    for spec in SEARCH_GROUPS:
        safe = spec.replace(":", "_")
        paths = []
        for attempt in (1, 2):
            path = tmp_path / f"{safe}-{attempt}.json"
            proc = cli(
                "beauville", "search", "--group", spec, "--seed", "7",
                "--format", "json", "--out", str(path),
            )
            assert proc.returncode == 0, (spec, proc.stderr)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), spec
        proc = cli("beauville", "verify", "--cert", str(paths[0]))
        assert proc.returncode == 0, (spec, proc.stdout, proc.stderr)

    # the criterion-5 witnesses re-verify from a fresh process as well
    for group, c, d in (("A6", "5a", "4a"), ("L2:11", "6a", "5a"), ("L2:11", "6a", "5b")):
        proc = cli("genclasses", "verify", "--group", group, "--c", c, "--d", d)
        assert proc.returncode == 0, (group, c, d, proc.stdout)
