import json
from array import array
from math import gcd

import pytest

import bvl.chartab as chartab
import bvl.permgroup as pg
from bvl.catalog import build_group, load_group_file
from bvl.chartab import (
    TableError,
    _split_conjugate_pair,
    character_table,
    class_matrix,
    verify_orthogonality,
)
from bvl.cli import run
from bvl.cyclotomic import Cyclo
from bvl.numtheory import DomainError
from bvl.permgroup import CapacityError


def test_degrees_of_known_tables():
    assert character_table(build_group("S3")).degrees == [1, 1, 2]
    assert character_table(build_group("A4")).degrees == [1, 1, 1, 3]
    assert character_table(build_group("A5")).degrees == [1, 3, 3, 4, 5]
    assert character_table(build_group("A6")).degrees == [1, 5, 5, 8, 8, 9, 10]
    assert character_table(load_group_file("m11.json")).degrees == [
        1, 10, 10, 10, 11, 16, 16, 44, 45, 55
    ]


def test_sum_of_degree_squares():
    for spec in ("S3", "S4", "A5", "L2:7", "L2:8", "L3:2"):
        T = character_table(build_group(spec))
        assert sum(d * d for d in T.degrees) == T.group_order


def test_orthogonality_holds_and_detects_perturbation():
    T = character_table(build_group("A5"))
    assert verify_orthogonality(T)
    T.rows[2][3] = T.rows[2][3] + 1
    assert not verify_orthogonality(T)


def coefficient(G, ci, cj, ck):
    """a_ijk = #{(x, y) in C_i x C_j with xy = z} for a fixed z in C_k, from class_matrix."""
    cd = G.conjugacy_data()
    i, j, k = (cd.by_label(lbl).index for lbl in (ci, cj, ck))
    return class_matrix(cd, i, [j])[0][k]


def test_class_mult_coefficient_examples():
    S3 = build_group("S3")
    assert coefficient(S3, "2a", "2a", "3a") == 3
    A5 = build_group("A5")
    for c in ("2a", "3a", "5a"):
        assert coefficient(A5, "1a", c, c) == 1
    assert coefficient(A5, "1a", "5a", "5b") == 0
    with pytest.raises(DomainError):
        coefficient(S3, "2a", "2a", "9z")


def test_class_mult_coefficient_independent_of_z():
    # recount against every element of C_k, not just the stored representative
    G = build_group("A5")
    cmap = G.conjugacy_data()
    i, j, k = 2, 3, 4  # 3a, 5a, 5b
    base = None
    for z in cmap.elements_of(k)[:6]:
        count = sum(1 for x in cmap.elements_of(i) if cmap.class_of(x.inverse() * z) == j)
        if base is None:
            base = count
        assert count == base
    assert base == class_matrix(cmap, i, [j])[0][k]


def test_dixon_consistency_small_groups():
    # a_ijk reconstructed from the table equals the counted class-matrix entry:
    # a_ijk = |C_i||C_j| / |G|^2 * sum over chi of (|G| / chi(1)) chi(i) chi(j) chi(k*)
    for spec in ("S3", "A4", "A5"):
        G = build_group(spec)
        cd = G.conjugacy_data()
        T = character_table(G)
        k = len(cd.classes)
        weights = [T.group_order // deg for deg in T.degrees]
        for i in range(k):
            A = class_matrix(cd, i, range(k))
            for j in range(k):
                for l in range(k):
                    total = Cyclo.zero(T.conductor)
                    for row, w in zip(T.rows, weights):
                        total = total + row[i] * row[j] * row[cd.classes[l].power_row[-1]] * w
                    a, rest = divmod(
                        total.rational_value() * cd.classes[i].size * cd.classes[j].size,
                        T.group_order ** 2,
                    )
                    assert rest == 0
                    assert a == A[j][l]


def test_power_map_galois_consistency():
    # chi(g^k) is the Galois twist zeta -> zeta^k of chi(g) for k coprime to o(g)
    for spec in ("A5", "L2:7"):
        G = build_group(spec)
        cd = G.conjugacy_data()
        T = character_table(G)
        for c in cd.classes:
            m = c.element_order
            for k in range(1, m):
                if gcd(k, m) != 1:
                    continue
                target = c.power_row[k]
                t = next(t for t in range(1, T.conductor) if t % m == k and gcd(t, T.conductor) == 1)
                for row in T.rows:
                    assert row[target] == row[c.index].galois(t)


def test_trivial_character_multiplicity_is_integral():
    for spec in ("S4", "A5", "L2:7"):
        T = character_table(build_group(spec))
        for row in T.rows:
            total = Cyclo.zero(T.conductor)
            for c, value in zip(T.cmap.classes, row):
                total = total + value * c.size
            mult, rest = divmod(total.rational_value(), T.group_order)
            assert rest == 0 and mult >= 0


def test_galois_stability_permutes_rows():
    T = character_table(build_group("A5"))
    e = T.conductor
    keys = {tuple(v.sort_key() for v in row) for row in T.rows}
    for t in range(2, e):
        if gcd(t, e) != 1:
            continue
        twisted = {tuple(v.galois(t).sort_key() for v in row) for row in T.rows}
        assert twisted == keys


def test_table_is_deterministic_and_json_stable():
    a = character_table(build_group("L2:11"))
    b = character_table(build_group("L2:11"))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)
    assert a.prime == b.prime and a.zeta_mod_p == b.zeta_mod_p


def test_first_column_is_degrees():
    T = character_table(build_group("L2:13"))
    idx = T.cmap.by_label("1a").index
    for deg, row in zip(T.degrees, T.rows):
        assert row[idx].rational_value() == deg


def test_root_finding_with_more_classes_than_the_dixon_prime(tmp_path):
    # C2^5 = <(1,2), (3,4), ..., (9,10)> has 32 classes and Dixon prime 13, so
    # its first characteristic polynomial has degree 32 >= p: the roots must
    # come from gcd(f, x^p - x), not from a squarefree part f / gcd(f, f'),
    # which fails once a factor (x - a)^p, of zero derivative, can occur
    gens = [[*range(1, 2 * i + 1), 2 * i + 2, 2 * i + 1, *range(2 * i + 3, 11)] for i in range(5)]
    path = tmp_path / "c2_5.json"
    path.write_text(json.dumps({"name": "C2^5", "degree": 10, "generators": gens}))
    T = character_table(build_group(f"file:{path}"))
    assert (T.group_order, T.prime, T.degrees) == (32, 13, [1] * 32)
    assert verify_orthogonality(T)


def test_capacity_errors():
    G = build_group("A12")
    with pytest.raises(CapacityError):
        character_table(G)


def test_class_matrix_row_sums():
    # sum over k of a_ijk equals |C_i| for every column j
    G = build_group("A5")
    cd = G.conjugacy_data()
    for i in range(len(cd.classes)):
        A = class_matrix(cd, i, range(len(cd.classes)))
        for l in range(len(cd.classes)):
            assert sum(A[j][l] for j in range(len(cd.classes))) == cd.classes[i].size


@pytest.mark.parametrize("spec", ["A5", "L2:7", "file:m11.json"])
def test_class_matrix_rows_match_whole_matrix(spec):
    cd = build_group(spec).conjugacy_data()
    k = len(cd.classes)
    rows = [k - 1, 0, k // 2]
    for i in range(k):
        picked = class_matrix(cd, i, rows)
        whole = class_matrix(cd, i, range(k))
        assert picked == [whole[j] for j in rows], (spec, i)


def test_class_matrix_refuses_a_count_not_divisible_by_the_class_size(monkeypatch, capsys):
    # A[j][l] = T(i, j, l*) / |C_l| exactly, or an internal fault (exit 4):
    # never floored.  Every T one above the count is no longer a multiple of
    # a class size above 1.
    counts = pg.ClassMap.triple_counts
    monkeypatch.setattr(pg.ClassMap, "triple_counts",
                        lambda self, a, b: array("q", (t + 1 for t in counts(self, a, b))))
    code = run(["chartab", "--group", "S3"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: TableError: class matrix of "), err
    with pytest.raises(TableError, match=r"not a multiple of \|C_l\| for l in \['2a', '3a'\]"):
        class_matrix(build_group("S3").conjugacy_data(), 1, [1])


def test_character_table_scans_only_pivot_rows(monkeypatch):
    # the whole class matrices of M12 would scan 119 of its 120 class pairs;
    # the pivot rows of the eigenspaces still to split need 23.  The matrix
    # of class 1a is the identity, which splits nothing, so it is never built.
    scans, matrices = [], []
    scan = pg.ClassMap._scan

    def counted(self, a, b):
        scans.append(frozenset((a, b)))
        return scan(self, a, b)

    def recorded(cmap, i, rows):
        matrices.append(i)
        return class_matrix(cmap, i, rows)

    monkeypatch.setattr(pg.ClassMap, "_scan", counted)
    monkeypatch.setattr("bvl.chartab.class_matrix", recorded)
    T = character_table(load_group_file("m12.json"))
    assert len(T.degrees) == 15
    assert 0 < len(set(scans)) == len(scans) <= 23
    assert matrices and 0 not in matrices


def test_character_table_splits_with_the_cheapest_class_matrices_first(monkeypatch):
    # a scan of the class pair {a, b} runs over min(|C_a|, |C_b|) elements;
    # taking the class matrices in ascending |C| / o(C) scans 11,862 on M12
    # in 23 scans, class-index order 14,503.  Left to the class matrices, the
    # conjugate pair 16a/16b would keep class 11a among the pivot rows to the
    # last step: 30 scans, 28,699 elements.
    scanned = []
    scan = pg.ClassMap._scan

    def counted(self, a, b):
        scanned.append(min(self.classes[a].size, self.classes[b].size))
        return scan(self, a, b)

    monkeypatch.setattr(pg.ClassMap, "_scan", counted)
    T = character_table(load_group_file("m12.json"))
    assert len(T.degrees) == 15
    assert (len(scanned), sum(scanned)) == (23, 11862)


def _c3_pair_space():
    # C3 mod 7, z = 2: omega of the two non-real characters is (1, z, z^2) and
    # (1, z^2, z); their span in reduced row echelon form
    return [[1, 0, 6], [0, 1, 6]], [0, 1]


def test_conjugate_pair_is_split_by_row_orthogonality():
    lines = _split_conjugate_pair(_c3_pair_space(), [0, 2, 1], [1, 1, 1], 7)
    assert sorted(B[0] for B, _ in lines) == [[1, 2, 4], [1, 4, 2]]
    # a space P fixes pointwise (real characters), or a space P does not map
    # onto itself, is left for the class matrices
    real = [[1, 0, 0], [0, 1, 1]], [0, 1]
    assert _split_conjugate_pair(real, [0, 2, 1], [1, 1, 1], 7) == [real]
    assert _split_conjugate_pair(real, [0, 1, 2], [1, 1, 1], 7) == [real]
    skew = [[1, 0, 2], [0, 1, 3]], [0, 1]
    assert _split_conjugate_pair(skew, [0, 2, 1], [1, 1, 1], 7) == [skew]


@pytest.mark.parametrize("roots", [[], [3], [1, 2, 3]])
def test_conjugate_pair_split_needs_exactly_two_roots(roots, monkeypatch):
    monkeypatch.setattr("bvl.chartab._poly_roots", lambda f, p: roots)
    with pytest.raises(TableError, match=f"needs 2 roots of its quadratic, found {len(roots)}$"):
        _split_conjugate_pair(_c3_pair_space(), [0, 2, 1], [1, 1, 1], 7)


def test_conjugate_pair_root_count_fault_exits_4(monkeypatch, capsys):
    # drop one root of the pair split's degree-2 polynomial, and only there
    split, roots = chartab._split_conjugate_pair, chartab._poly_roots

    def one_root_split(space, *args):
        with monkeypatch.context() as m:
            m.setattr("bvl.chartab._poly_roots", lambda f, p: roots(f, p)[:1])
            return split(space, *args)

    monkeypatch.setattr("bvl.chartab._split_conjugate_pair", one_root_split)
    code = run(["chartab", "--group", "A7"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: internal: TableError: "
                   "conjugate pair split needs 2 roots of its quadratic, found 1\n"), err


@pytest.mark.parametrize("spec", ["A7", "A8", "file:m11.json", "file:m12.json", "L2:7", "L2:27", "L3:3"])
def test_conjugate_pair_split_matches_the_class_matrices(spec, monkeypatch):
    # with the closed form switched off, class matrices alone split every space
    G = build_group(spec)
    fast = character_table(G).to_json_dict()
    monkeypatch.setattr("bvl.chartab._split_conjugate_pair", lambda space, *args: [space])
    assert character_table(build_group(spec)).to_json_dict() == fast
