import hashlib
import json

import pytest

from bvl.catalog import (
    FAMILIES,
    GF,
    GroupSpec,
    LieMeta,
    build_group,
    catalog_specs,
    classical_order,
    data_dir,
    load_group_file,
    parse_spec,
)
from bvl.cli import run
from bvl.numtheory import DomainError, is_prime_power
from bvl.permgroup import CapacityError


def test_parse_spec_grammar():
    assert parse_spec("A5") == GroupSpec(family="ALT", param=5)
    assert parse_spec("S6") == GroupSpec(family="SYM", param=6)
    assert parse_spec("L2:7") == GroupSpec(family="PSL2", param=7)
    assert parse_spec("L3:3") == GroupSpec(family="PSL3", param=3)
    assert parse_spec("file:m11.json") == GroupSpec(family="FILE", param="m11.json")
    # either case for the prefix, leading zeros, and whitespace around the spec
    assert parse_spec("a5") == parse_spec("A05") == GroupSpec(family="ALT", param=5)
    assert parse_spec(" S6") == GroupSpec(family="SYM", param=6)
    assert parse_spec("l2:7") == parse_spec("L2:7 ") == GroupSpec(family="PSL2", param=7)
    assert parse_spec("FILE:m11.json") == GroupSpec(family="FILE", param="m11.json")
    # one grammar for every family: the parameter is digits only, with no
    # sign and no space after the prefix
    for bad in ("X5", "L4:2", "A", "L2:x", "", "A+5", "L2:+7", "L2: 7", "A 5", "A\u00b2", "A" + "9" * 5000):
        with pytest.raises(DomainError, match="cannot parse group spec"):
            parse_spec(bad)


def test_catalog_specs():
    assert catalog_specs() == (
        ["A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12",
         "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12"]
        + ["L2:4", "L2:5", "L2:7", "L2:8", "L2:9", "L2:11", "L2:13", "L2:16", "L2:17",
           "L2:19", "L2:23", "L2:25", "L2:27", "L2:29", "L2:31", "L2:32", "L2:37",
           "L2:41", "L2:43", "L2:47", "L2:49"]
        + ["L3:2", "L3:3", "L3:5"]
    )


def test_gf_field_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 49):
        F = GF(q)
        p, f = is_prime_power(q)
        assert (F.p, F.f) == (p, f)
        for a in range(q):
            assert F.add[a][0] == a
            assert F.mul[a][1] == a
            if a:
                assert F.mul[a][F.inv[a]] == 1
        # a sampling of associativity/distributivity
        pts = list(range(min(q, 6)))
        for a in pts:
            for b in pts:
                for c in pts:
                    assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
                    assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]


def _per_entry_tables(F):
    """add, mul and inv entry by entry, on digit vectors and polynomials mod F.modulus."""
    p, f, q = F.p, F.f, F.q

    def digits(a):
        return [a // p**i % p for i in range(f)]

    def code(ds):
        return sum(c % p * p**i for i, c in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for i in range(2 * f - 2, f - 1, -1):  # x^f = -(modulus below x^f)
            c, prod[i] = prod[i], 0
            for j, m in enumerate(F.modulus[:-1]):
                prod[i - f + j] -= c * m
        return code(prod[:f])

    add = [[code([x + y for x, y in zip(digits(a), digits(b))]) for b in range(q)] for a in range(q)]
    mul_table = [[mul(a, b) for b in range(q)] for a in range(q)]
    inv = [0] + [next(b for b in range(1, q) if mul_table[a][b] == 1) for a in range(1, q)]
    return add, mul_table, inv


@pytest.mark.parametrize("q", [q for q in range(2, 129) if is_prime_power(q)])
def test_gf_log_tables_match_per_entry_arithmetic(q):
    F = GF(q)
    assert (F.add, F.mul, F.inv) == _per_entry_tables(F)


def test_build_group_examples():
    G = build_group("L2:7")
    assert (G.degree, G.order) == (8, 168)
    G = build_group("A5")
    assert (G.degree, G.order) == (5, 60)
    G = build_group("L3:2")
    assert (G.degree, G.order) == (7, 168)


def test_orders_match_classical_formulas():
    for text in catalog_specs():
        spec = parse_spec(text)
        assert build_group(spec).order == classical_order(spec), text


def test_order_formula_mismatch_is_internal(monkeypatch, capsys):
    # build_group checks every built group against its family's formula
    monkeypatch.setattr(FAMILIES["PSL2"], "order", lambda q: 1)
    code = run(["group", "--group", "L2:7"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: internal:"), err


def test_linear_group_generators_are_byte_stable():
    # sha256 over the generator image bytes of every L2 and L3 catalog group,
    # recorded at 8a16018 from the separate PSL2 and PSL3 builders: point
    # labels and generator order must not move.
    specs = [s for s in catalog_specs() if s.startswith("L")]
    h = hashlib.sha256()
    for text in specs:
        for g in build_group(text).generators:
            h.update(g.images)
    assert len(specs) == 24
    assert h.hexdigest() == "5b6289dc93da39a205df8222e489ceb8676419ef3d3aad982f64eaf4fa303309"


def test_out_of_range_parameters_rejected():
    for bad in ("A2", "A13", "S13", "L2:3", "L2:50", "L2:6", "L3:4", "L3:7"):
        with pytest.raises(DomainError):
            build_group(bad)


def test_psl2_two_transitive():
    for q in (5, 7, 9, 11):
        G = build_group(f"L2:{q}")
        pair = (1, 2)
        seen = {pair}
        stack = [pair]
        while stack:
            a, b = stack.pop()
            for g in G.generators:
                img = (g.images[a], g.images[b])
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
        assert len(seen) == (q + 1) * q


def test_psl2_element_orders():
    # element orders are exactly {1, p} plus the divisors of both torus orders
    for q in (7, 8, 9, 13, 25):
        G = build_group(f"L2:{q}")
        p, _ = is_prime_power(q)
        d = 2 if q % 2 else 1
        expected = {1, p}
        for torus in ((q - 1) // d, (q + 1) // d):
            expected |= {k for k in range(1, torus + 1) if torus % k == 0}
        orders = {c.element_order for c in G.conjugacy_data().classes}
        assert orders == expected, q


def test_built_groups_carry_lie_meta():
    assert build_group("L2:11").meta == build_group(parse_spec("L2:11")).meta
    m = build_group("L2:11").meta
    assert (m.dim_G, m.rank, m.weyl_order, m.defining_prime) == (3, 1, 2, 11)
    m = build_group("L3:3").meta
    assert (m.dim_G, m.rank, m.weyl_order, m.defining_prime) == (8, 2, 6, 3)
    assert build_group("L2:8").meta == LieMeta(dim_G=3, rank=1, weyl_order=2, defining_prime=2, q=8)
    assert build_group("A7").meta is None
    assert build_group("S6").meta is None
    assert build_group("file:m11.json").meta is None


def test_load_group_file_bundled():
    m11 = load_group_file("m11.json")
    assert (m11.name, m11.order) == ("M11", 7920)
    m12 = load_group_file("m12.json")
    assert (m12.name, m12.order) == ("M12", 95040)
    assert sum(c.size for c in m12.conjugacy_data().classes) == 95040


def test_load_group_file_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "X", "degree": 3, "generators": [[1, 1, 3]]}))
    with pytest.raises(DomainError, match="bijection"):
        load_group_file(bad)
    bad.write_text(json.dumps({"degree": 3, "generators": []}))
    with pytest.raises(DomainError, match="name"):
        load_group_file(bad)
    bad.write_text("{not json")
    with pytest.raises(DomainError, match="JSON"):
        load_group_file(bad)
    with pytest.raises(DomainError, match="not found"):
        load_group_file(tmp_path / "missing.json")


def test_load_group_file_degree_bound(tmp_path):
    def cyclic_file(n):
        path = tmp_path / f"c{n}.json"
        cycle = list(range(2, n + 1)) + [1]
        path.write_text(json.dumps({"name": f"C{n}", "degree": n, "generators": [cycle]}))
        return path

    assert load_group_file(cyclic_file(255)).order == 255
    with pytest.raises(CapacityError):
        load_group_file(cyclic_file(256))


def test_data_dir_override(monkeypatch, tmp_path):
    payload = {"name": "C2", "degree": 2, "generators": [[2, 1]]}
    (tmp_path / "c2.json").write_text(json.dumps(payload))
    monkeypatch.setenv("BVL_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    G = load_group_file("c2.json")
    assert G.order == 2
