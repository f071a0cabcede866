import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bvl.permgroup as pg
from bvl.catalog import JSON_BYTE_CAP
from bvl.chartab import TableError
from bvl.cli import run
from bvl.permgroup import MembershipError

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def bvl_process(argv, env=(), timeout=60, **kwargs):
    """python -m bvl.cli argv in a child, so through cli.main.

    env entries are added to os.environ; an empty value removes its variable.
    """
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": str(SRC), **dict(env)}.items() if v}
    return subprocess.run([sys.executable, "-m", "bvl.cli", *argv], text=True, timeout=timeout,
                          env=env, **kwargs)


def test_zsigmondy_text_and_json(capsys):
    code, out, _ = run_cli(["zsigmondy", "--q", "2", "--n", "6"], capsys)
    assert code == 0
    assert "primitive part 1" in out
    code, out, _ = run_cli(["zsigmondy", "--q", "2", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 4, "phi_value": 5, "primitive_part": 5, "primitive_primes": [5], "q": 2
    }


def test_zsigmondy_refuses_a_strong_pseudoprime_q(capsys):
    # a composite that passes Miller-Rabin on the bases 2..37 is not a prime power
    code, out, err = run_cli(["zsigmondy", "--q", "318665857834031151167461", "--n", "1"], capsys)
    assert (code, out) == (2, "") and "prime power" in err


def test_zsigmondy_past_the_factoring_cap_exits_3_fast(capsys):
    # rho splits four factors off Phi_500(2), then stalls on a 132-bit
    # composite until numtheory.RHO_STEP_CAP stops it
    start = time.monotonic()
    code, out, err = run_cli(["zsigmondy", "--q", "2", "--n", "500"], capsys)
    assert (code, out) == (3, "") and err.startswith("error: capacity: factoring a 132-bit")
    assert time.monotonic() - start < 10


def test_group_past_the_chain_sift_cap_exits_3_fast(tmp_path):
    # (1 2) and (1 2 ... 255) generate S255, whose complete chain would sift
    # millions of Schreier generators; permgroup.CHAIN_SIFT_CAP stops the build
    n = 255
    path = tmp_path / "s255.json"
    gens = [[2, 1, *range(3, n + 1)], [*range(2, n + 1), 1]]
    path.write_text(json.dumps({"name": "S255", "degree": n, "generators": gens}))
    start = time.monotonic()
    proc = bvl_process(["group", "--group", f"file:{path}"], capture_output=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: capacity: stabilizer chain needs over 10000 sifted Schreier generators\n"
    assert time.monotonic() - start < 10


def test_group_and_classes(capsys):
    code, out, _ = run_cli(["group", "--group", "L2:7", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 168 and payload["degree"] == 8
    code, out, _ = run_cli(["classes", "--group", "S3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert [c["size"] for c in payload["classes"]] == [1, 3, 2]


def test_chartab_json(capsys):
    code, out, _ = run_cli(["chartab", "--group", "A5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 3, 3, 4, 5]
    assert payload["orthogonality_verified"] is True


def test_struct_both_methods(capsys):
    code, out, _ = run_cli(
        ["struct", "--group", "S3", "--classes", "2a,2a,3a", "--method", "both", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == {"formula": 2, "brute": 2}


def test_struct_bad_classes_usage_error(capsys):
    code, _, err = run_cli(["struct", "--group", "S3", "--classes", "2a,2a"], capsys)
    assert code == 2 and "usage" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(["zsigmondy", "--q", "2", "--n", "4", "--frobnicate"], capsys)
    assert code == 2


def test_charbound_pass(capsys):
    code, out, _ = run_cli(["charbound", "--group", "L2:9", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["bound"] == 2


def test_beauville_search_a5_negative(capsys):
    code, out, _ = run_cli(
        ["beauville", "search", "--group", "A5", "--strategy", "exhaustive"], capsys
    )
    assert code == 1
    assert "NONE_EXHAUSTED" in out


def test_beauville_roundtrip_and_determinism(tmp_path, capsys):
    cert1 = tmp_path / "cert1.json"
    cert2 = tmp_path / "cert2.json"
    code, out1, _ = run_cli(
        ["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert1)],
        capsys,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert2)],
        capsys,
    )
    assert code == 0
    assert out1 == out2
    assert cert1.read_bytes() == cert2.read_bytes()
    code, out, _ = run_cli(["beauville", "verify", "--cert", str(cert1)], capsys)
    assert code == 0 and "VERIFIED" in out


def test_beauville_verify_rejects_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run_cli(["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert)], capsys)
    payload = json.loads(cert.read_text())
    payload["pairs"][1] = payload["pairs"][0]  # y1 := x1, no longer generating
    cert.write_text(json.dumps(payload))
    code, out, _ = run_cli(["beauville", "verify", "--cert", str(cert)], capsys)
    assert code == 1 and "REFUSED" in out


def test_beauville_verify_refuses_element_outside_group(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run_cli(["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert)], capsys)
    payload = json.loads(cert.read_text())
    x = payload["pairs"][0]
    x[:2] = x[1], x[0]  # an odd permutation, outside L2:7 < A8
    cert.write_text(json.dumps(payload))
    code, out, err = run_cli(["beauville", "verify", "--cert", str(cert)], capsys)
    assert (code, out, err) == (1, "certificate for L2:7: REFUSED: element-outside-group\n", "")


def test_beauville_verify_refuses_zero_prefixed_pairs(tmp_path, capsys):
    # pairs are 1-based image arrays: a leading 0 is a ninth image, not slot 0
    cert = tmp_path / "cert.json"
    run_cli(["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert)], capsys)
    payload = json.loads(cert.read_text())
    payload["pairs"] = [[0] + arr for arr in payload["pairs"]]
    cert.write_text(json.dumps(payload))
    code, out, err = run_cli(["beauville", "verify", "--cert", str(cert)], capsys)
    assert (code, err) == (1, "")
    assert out.startswith("certificate for L2:7: REFUSED: malformed-permutation")


def test_beauville_verify_refuses_an_oversized_pair_array(tmp_path, capsys):
    # a pair array past 255 points is a malformed certificate (exit 1), not a
    # capacity bound of the run (exit 3)
    cert = tmp_path / "cert.json"
    run_cli(["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert)], capsys)
    payload = json.loads(cert.read_text())
    payload["pairs"][0] = list(range(1, 301))
    cert.write_text(json.dumps(payload))
    code, out, err = run_cli(["beauville", "verify", "--cert", str(cert)], capsys)
    assert (code, out, err) == (1, "certificate for L2:7: REFUSED: malformed-permutation: "
                                   "permutation degree must be <= 255, got 300\n", "")


def _coerced_entries(payload):
    # the first pair's leading entries as a string and a float, and a bool seed
    payload["pairs"][0][:2] = [str(payload["pairs"][0][0]), float(payload["pairs"][0][1])]
    payload["seed"] = True


@pytest.mark.parametrize(
    "tamper",
    [
        _coerced_entries,
        lambda payload: payload.update(pairs=5),
        lambda payload: payload.update(group=5),
        lambda payload: payload.update(hyperbolic=["yes", 0]),
        lambda payload: payload.update(orders=payload["orders"][:5] + [True]),
        lambda payload: payload.update(sigma_classes=[["1a", 2], ["1a"]]),
        lambda payload: payload.update(seed=True),
    ],
    ids=[
        "coerced-entries", "pairs-int", "group-int", "hyperbolic-str", "orders-bool",
        "sigma-int", "seed-bool",
    ],
)
def test_beauville_verify_refuses_malformed_fields(tmp_path, capsys, tamper):
    cert = tmp_path / "cert.json"
    run_cli(["beauville", "search", "--group", "L2:7", "--format", "json", "--out", str(cert)], capsys)
    payload = json.loads(cert.read_text())
    tamper(payload)
    cert.write_text(json.dumps(payload))
    code, out, err = run_cli(["beauville", "verify", "--cert", str(cert)], capsys)
    assert code == 2 and "usage" in err and out == ""


def test_genclasses_verify(capsys):
    code, out, _ = run_cli(
        ["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "3a", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexample"] is None and payload["pairs_tested"] == 20
    code, out, _ = run_cli(
        ["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "5b"], capsys
    )
    assert code == 1


def test_genclasses_search_has_the_class_order_bound(monkeypatch, capsys):
    # the one order bound is the class map's (A10, of order 1,814,400, runs)
    monkeypatch.setattr("bvl.permgroup.CLASS_ORDER_BOUND", 59)
    code, out, err = run_cli(["genclasses", "search", "--group", "A5"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: capacity: conjugacy classes need order <= 59, group has order 60\n"
    monkeypatch.setattr("bvl.permgroup.CLASS_ORDER_BOUND", 60)
    assert run_cli(["genclasses", "search", "--group", "A5"], capsys)[0] == 0


def test_genclasses_search(capsys):
    code, out, _ = run_cli(["genclasses", "search", "--group", "A5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert ["5a", "3a"] in payload["pairs"]


def test_pointcount(capsys):
    code, out, _ = run_cli(
        ["pointcount", "--group", "L3:2", "--classes", "7a,7a,7b", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] == 1024
    assert payload["exact_count"] == payload["n"] * payload["class_size"]
    code, _, err = run_cli(["pointcount", "--group", "L2:7", "--classes", "2a,3a,4a"], capsys)
    assert code == 2 and "rank" in err


def test_bad_group_spec_usage_error(capsys):
    code, _, err = run_cli(["group", "--group", "Z9"], capsys)
    assert code == 2
    code, _, err = run_cli(["group", "--group", "L2:6"], capsys)
    assert code == 2


@pytest.mark.parametrize("spec,message", [
    ("A2", "alternating degree must be in 3..12, got 2"),
    ("A13", "alternating degree must be in 3..12, got 13"),
    ("S13", "symmetric degree must be in 3..12, got 13"),
    ("L2:50", "L2 parameter must be a prime power in 4..49, got 50"),
    ("L2:6", "L2 parameter must be a prime power in 4..49, got 6"),
    ("L3:4", "L3 parameter must be one of 2, 3, 5, got 4"),
])
def test_out_of_range_parameter_message(spec, message, capsys):
    assert run_cli(["group", "--group", spec], capsys) == (2, "", f"error: usage: {message}\n")


GROUP_TEXT = (
    st.text(max_size=12)
    | st.tuples(st.sampled_from(["A", "a", "S", "s", "L2:", "l2:", "L3:", "L", "file:", ""]),
                st.sampled_from(["", "+", "-", " ", "\t", "0"]),
                st.text(alphabet="0123456789", max_size=5000)
                | st.text(alphabet=st.characters(categories=["Nd", "No"]), max_size=8),
                st.sampled_from(["", " ", "\n", ":7", "x"])).map("".join)
)


@settings(max_examples=200, deadline=None)
@given(text=GROUP_TEXT)
def test_arbitrary_group_text_never_exits_4(text):
    start = time.perf_counter()
    code = run(["group", "--group", text])
    assert code in (0, 2, 3), text
    assert time.perf_counter() - start < 5


def test_capacity_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["chartab", "--group", "A12"], capsys)
    assert code == 3 and "capacity" in err
    # S10 (order 3,628,800) is past the class-enumeration bound: fail fast
    for command in ("classes", "chartab"):
        code, _, err = run_cli([command, "--group", "S10"], capsys)
        assert code == 3 and "capacity" in err
    # the cyclic group of order 61 has 61 classes, one more than MAX_CLASSES
    path = tmp_path / "c61.json"
    path.write_text(json.dumps({"name": "C61", "degree": 61, "generators": [list(range(2, 62)) + [1]]}))
    code, _, err = run_cli(["beauville", "search", "--group", f"file:{path}"], capsys)
    assert code == 3 and "capacity" in err


@pytest.mark.parametrize("argv", [
    ["charbound", "--group", "A9"],
    ["pointcount", "--group", "A9", "--classes", "5a,5a,5b"],
], ids=["charbound", "pointcount"])
def test_missing_metadata_is_reported_before_class_work(argv, monkeypatch, capsys):
    def no_classes(G):
        raise AssertionError("conjugacy_classes called")

    monkeypatch.setattr("bvl.permgroup.conjugacy_classes", no_classes)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: usage: operation needs a Lie-type catalog group (no metadata)\n"
    # past the class bound it is a capacity error, metadata or not
    code, out, err = run_cli([argv[0], "--group", "A11", *argv[3:]], capsys)
    assert (code, out) == (3, "") and err.startswith("error: capacity: conjugacy classes need")


def test_charbound_without_metadata_is_usage_error_past_max_classes(tmp_path, capsys):
    # C61 has one class more than MAX_CLASSES; no table is built to find that out
    path = tmp_path / "c61.json"
    path.write_text(json.dumps({"name": "C61", "degree": 61, "generators": [list(range(2, 62)) + [1]]}))
    code, out, err = run_cli(["charbound", "--group", f"file:{path}"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: usage:")


@pytest.mark.parametrize(
    "payload",
    [
        {"name": "C3", "degree": 3, "generators": [[2.0, 3, 1]]},
        {"name": "C2", "degree": 3, "generators": [[True, 3, 2]]},
        5,
        {"name": "C3", "degree": 3, "generators": 5},
        {"name": "C3", "degree": 3, "generators": [5]},
    ],
    ids=["float-entry", "bool-entry", "top-level-int", "generators-int", "generator-int"],
)
def test_bad_group_file_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(["group", "--group", f"file:{path}"], capsys)
    assert code == 2 and "usage" in err


def test_degree_above_255_is_capacity_error(tmp_path, capsys):
    path = tmp_path / "c256.json"
    cycle = list(range(2, 257)) + [1]
    path.write_text(json.dumps({"name": "C256", "degree": 256, "generators": [cycle]}))
    code, _, err = run_cli(["group", "--group", f"file:{path}"], capsys)
    assert code == 3 and "capacity" in err


@pytest.mark.parametrize("argv", [
    ["group", "--group", "file:"],  # the empty path resolves to the working directory
    ["classes", "--group", "file:{dir}"],
    ["beauville", "verify", "--cert", "{dir}"],
    ["group", "--group", "file:{dir}/binary.json"],  # not UTF-8
    ["beauville", "verify", "--cert", "{dir}/binary.json"],
])
def test_unreadable_input_path_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli([a.format(dir=tmp_path) for a in argv], capsys)
    assert (code, out) == (2, "") and err.startswith("error: usage:"), err


C3_FILE = {"name": "C3", "degree": 3, "generators": [[2, 3, 1]]}
MISSING, DIRECTORY = "missing", "directory"


def _without(key):
    return lambda valid: {k: v for k, v in valid.items() if k != key}


def _with(**fields):
    return lambda valid: {**valid, **fields}


def _input_file(tmp_path, content, valid):
    """A path that is missing, a directory, raw bytes, or the JSON value that
    content makes of the valid payload."""
    path = tmp_path / "input.json"
    if content == DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content != MISSING:
        path.write_text(json.dumps(content(valid)))
    return path


@pytest.fixture(scope="module")
def l27_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert run(["beauville", "search", "--group", "L2:7", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _input_argv(kind, path):
    if kind == "group":
        return ["group", "--group", f"file:{path}"]
    return ["beauville", "verify", "--cert", str(path)]


UNREADABLE = [
    ("missing-path", MISSING), ("directory", DIRECTORY), ("not-utf8", b"\xff\xfe\x00"),
    ("not-json", b"{not json"), ("nested-too-deep", b"[" * 100_000 + b"]" * 100_000),
    ("not-an-object", lambda valid: [1, 2]),
]
BAD_INPUTS = [
    *[(kind, row, content, 2, "usage") for kind in ("group", "cert") for row, content in UNREADABLE],
    ("group", "missing-field", _without("name"), 2, "usage"),
    ("cert", "missing-field", _without("seed"), 2, "usage"),
    ("group", "wrong-json-type", _with(generators=5), 2, "usage"),
    ("cert", "wrong-json-type", _with(seed="0"), 2, "usage"),
    ("group", "degree-0", _with(degree=0, generators=[]), 2, "usage"),
    ("group", "degree-256", _with(degree=256, generators=[list(range(2, 257)) + [1]]), 3, "capacity"),
    # the stated degree is bounded before a generator is read: no range of 10**20 points
    ("group", "degree-1e20", _with(degree=10**20, generators=[[1]]), 3, "capacity"),
]


@pytest.mark.parametrize("kind,content,code,prefix",
                         [(kind, content, code, prefix) for kind, _, content, code, prefix in BAD_INPUTS],
                         ids=[f"{kind}-{row}" for kind, row, *_ in BAD_INPUTS])
def test_bad_json_input_exit_code(kind, content, code, prefix, tmp_path, capsys, l27_certificate):
    # group files and certificates go through one reader (catalog.read_json)
    # and one field check (catalog.check_fields): each refusal names the input
    path = _input_file(tmp_path, content, C3_FILE if kind == "group" else l27_certificate)
    got, out, err = run_cli(_input_argv(kind, path), capsys)
    assert (got, out) == (code, "") and err.startswith(f"error: {prefix}:"), err
    if prefix == "usage":
        assert str(path) in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("kind", ["group", "cert"])
def test_fifo_input_is_refused_without_blocking(kind, tmp_path):
    # open() on a FIFO with no writer would block; the reader stats it first
    path = tmp_path / "input.json"
    os.mkfifo(path)
    proc = bvl_process(_input_argv(kind, path), timeout=10, capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"{path}: not a regular file\n"), proc.stderr


@pytest.mark.parametrize("kind", ["group", "cert"])
def test_input_over_the_byte_cap_is_capacity_error(kind, tmp_path, capsys):
    # a sparse file one byte past the cap: refused from its size, never read
    path = tmp_path / "input.json"
    path.touch()
    os.truncate(path, JSON_BYTE_CAP + 1)
    what = "group file" if kind == "group" else "certificate"
    code, out, err = run_cli(_input_argv(kind, path), capsys)
    assert (code, out) == (3, "")
    assert err == (f"error: capacity: {what} {path}: "
                   f"{JSON_BYTE_CAP + 1} bytes, over the cap of {JSON_BYTE_CAP}\n"), err


@pytest.mark.skipif(not os.path.exists("/dev/zero") or resource is None, reason="needs /dev/zero and rlimits")
@pytest.mark.parametrize("kind", ["group", "cert"])
def test_device_input_is_refused_before_any_read(kind):
    # an endless device grows the reader's buffer until MemoryError (exit 4);
    # under an address-space limit that growth, if it came back, fails fast
    limit = 512 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = bvl_process(_input_argv(kind, "/dev/zero"), timeout=30, capture_output=True,
                       preexec_fn=limit_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("/dev/zero: not a regular file\n"), proc.stderr


def test_embedded_nul_in_a_group_path_is_a_bad_path(tmp_path, capsys, l27_certificate):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**l27_certificate, "group": "file:a\u0000b"}))
    code, out, err = run_cli(["beauville", "verify", "--cert", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: usage: group file a\x00b: invalid path\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _some_fields_replaced(valid):
    """valid with each field kept, replaced by an arbitrary JSON value, or dropped."""
    drop = object()
    return st.fixed_dictionaries(
        {key: st.just(value) | JSON_VALUES | st.just(drop) for key, value in valid.items()}
    ).map(lambda d: {k: v for k, v in d.items() if v is not drop})


@pytest.mark.parametrize("kind", ["group", "cert"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_arbitrary_json_fields_never_exit_4(kind, data, tmp_path, capsys, l27_certificate):
    valid = C3_FILE if kind == "group" else l27_certificate
    payload = data.draw(_some_fields_replaced(valid))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, _, err = run_cli(_input_argv(kind, path), capsys)
    assert code in (0, 1, 2, 3), err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("out_path", ["{dir}", "{dir}/missing/out.json"])
def test_unwritable_out_path_is_usage_error(out_path, tmp_path, capsys):
    # --out is written before stdout, so a failed write prints nothing
    argv = ["group", "--group", "A5", "--format", "json", "--out", out_path.format(dir=tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and err.startswith("error: usage:"), err


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken_table(G):
        raise TableError("class matrices failed to split the class algebra")

    monkeypatch.setattr("bvl.chartab.character_table", broken_table)
    code, _, err = run_cli(["chartab", "--group", "A5"], capsys)
    assert code == 4 and "error: internal:" in err


def test_membership_error_inside_a_computation_is_internal(monkeypatch, capsys):
    # user elements are checked with G.contains first: this one is a fault
    def broken(G, gens):
        raise MembershipError("element is not in the group")

    monkeypatch.setattr("bvl.beauville.subgroup_order", broken)
    code, out, err = run_cli(["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "3a"], capsys)
    assert code == 4 and "error: internal: MembershipError:" in err and out == ""
    code, _, err = run_cli(["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "9z"], capsys)
    assert code == 2 and "error: usage:" in err


@pytest.mark.parametrize("argv,fault,code,err", [
    (["struct", "--group", "A5", "--classes", "5a,5a,9z"], None,
     2, "error: usage: unknown class label '9z'\n"),
    (["charbound", "--group", "A5"], None,
     2, "error: usage: operation needs a Lie-type catalog group (no metadata)\n"),
    (["beauville", "verify", "--cert", "{dir}/cert.json"], None,
     2, "error: usage: certificate {dir}/cert.json: invalid JSON"
        " (Expecting value: line 1 column 1 (char 0))\n"),
    (["chartab", "--group", "A5"], KeyError("9z"), 4, "error: internal: KeyError: '9z'\n"),
    (["chartab", "--group", "A5"], ValueError("bad"), 4, "error: internal: ValueError: bad\n"),
], ids=["unknown-label", "not-lie-type", "cert-not-json", "internal-keyerror",
        "internal-valueerror"])
def test_only_input_errors_exit_2(argv, fault, code, err, tmp_path, monkeypatch, capsys):
    # DomainError is raised where input is read; any other exception is a fault
    (tmp_path / "cert.json").write_text("not json")
    if fault is not None:
        monkeypatch.setattr("bvl.chartab.character_table", mock.Mock(side_effect=fault))
    got = run_cli([a.format(dir=tmp_path) for a in argv], capsys)
    assert got == (code, "", err.format(dir=tmp_path))


def test_incomplete_class_enumeration_is_internal_error(monkeypatch, capsys):
    # an explicit check, not an assert: it must survive python -O
    monkeypatch.setattr("bvl.permgroup._chain_elements", lambda G: iter([G.identity().images]))
    code, _, err = run_cli(["classes", "--group", "A5"], capsys)
    assert code == 4 and "error: internal: EnumerationError:" in err


@pytest.mark.parametrize("lost_from", ["walk", "table"])
def test_walk_that_loses_an_element_is_internal_error(lost_from, monkeypatch, capsys):
    # the class sizes must add up to |G| and the table must hold one element
    # of each pair {g, g^-1}: losing one walked element breaks one or the other
    walk, lost = pg._conjugation_orbit, []

    def lossy(conjugators, images, table, slot):
        members, low, real = walk(conjugators, images, table, slot)
        if not lost and len(members) > 1:
            lost.append(members.pop() if lost_from == "walk" else table.pop(members[-1]))
        return members, low, real

    monkeypatch.setattr(pg, "_conjugation_orbit", lossy)
    code, out, err = run_cli(["classes", "--group", "A5"], capsys)
    assert lost and (code, out) == (4, "") and "error: internal: EnumerationError:" in err, err


def test_walks_that_lose_an_element_from_list_and_table_are_internal_error(monkeypatch, capsys):
    # a lost element is drawn again and seeds a class of its own, so the
    # counts add up; the class sizes do not: on A5 classes of 14, 18, 10 and
    # 10 elements, none dividing |G| / o(rep) as every true class size does
    walk = pg._conjugation_orbit

    def lossy(conjugators, images, table, slot):
        members, low, real = walk(conjugators, images, table, slot)
        if len(members) > 1:
            del table[members.pop()]
        return members, low, real

    monkeypatch.setattr(pg, "_conjugation_orbit", lossy)
    code, out, err = run_cli(["classes", "--group", "A5"], capsys)
    assert (code, out) == (4, "") and "class sizes [10, 10, 14, 18] not dividing" in err, err


def test_search_fault_is_internal_not_a_verdict(monkeypatch, capsys):
    # a search whose pair fails re-verification is a bug, not "no structure"
    monkeypatch.setattr(
        "bvl.beauville.verify_beauville", lambda *args, **kwargs: (None, "sigma-intersection")
    )
    code, _, err = run_cli(["beauville", "search", "--group", "L2:7"], capsys)
    assert code == 4 and "error: internal: RuntimeError:" in err


def test_search_budget_exit_code(capsys):
    code, out, _ = run_cli(
        ["beauville", "search", "--group", "L2:7", "--budget", "1"], capsys
    )
    assert code == 3 and "NONE_BUDGET" in out
    argv = ["beauville", "search", "--group", "L2:7", "--format", "json", "--budget"]
    code, out, _ = run_cli(argv + ["0"], capsys)
    assert code == 3 and json.loads(out) == {
        "pair_tests": 41, "spec": "L2:7", "status": "none-budget", "types_examined": 107
    }
    code, out, err = run_cli(argv + ["-1"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: usage: budget must be >= 0")


@pytest.mark.parametrize("code, argv", [
    (0, ["group", "--group", "A5"]),
    (0, ["classes", "--group", "A5"]),
    (0, ["chartab", "--group", "A5"]),
    (0, ["struct", "--group", "A5", "--classes", "5a,5a,3a"]),
    (0, ["charbound", "--group", "L2:9"]),
    (0, ["pointcount", "--group", "L3:2", "--classes", "7a,7a,7b"]),
    (0, ["beauville", "search", "--group", "L2:7", "--seed", "1"]),
    (1, ["beauville", "search", "--group", "A5"]),
    (3, ["beauville", "search", "--group", "L2:7", "--budget", "1"]),
    (0, ["beauville", "verify", "--cert", "{cert}"]),
    (0, ["genclasses", "search", "--group", "A5"]),
    (0, ["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "3a"]),
    (1, ["genclasses", "verify", "--group", "A5", "--c", "5a", "--d", "5b"]),
    (0, ["zsigmondy", "--q", "2", "--n", "6"]),
], ids=["group", "classes", "chartab", "struct", "charbound", "pointcount", "search",
        "search-exhausted", "search-budget", "verify", "genclasses-search", "genclasses-verify",
        "genclasses-counterexample", "zsigmondy"])
def test_run_writes_out_then_stdout_once(code, argv, tmp_path, capsys):
    # every subcommand returns its result and run writes it: --out holds the
    # JSON payload in either format, also for a verdict that exits 1 or 3
    cert = tmp_path / "cert.json"
    if "{cert}" in argv:
        run_cli(["beauville", "search", "--group", "L2:7", "--seed", "1", "--out", str(cert)], capsys)
        argv = [a.format(cert=cert) for a in argv]
    as_json, as_text = tmp_path / "json.out", tmp_path / "text.out"
    json_run = run_cli(argv + ["--format", "json", "--out", str(as_json)], capsys)
    text_run = run_cli(argv + ["--format", "text", "--out", str(as_text)], capsys)
    assert json_run == (code, as_json.read_text(), "")
    assert as_text.read_bytes() == as_json.read_bytes()
    assert text_run == (code, run_cli(argv, capsys)[1], "") and text_run[1] != json_run[1]
    json.loads(json_run[1])


@pytest.mark.parametrize("code, argv", [
    (0, ["chartab", "--group", "A5", "--format", "json"]),
    (0, ["beauville", "search", "--group", "L2:7", "--seed", "1", "--format", "json", "--out"]),
    (1, ["beauville", "search", "--group", "A5"]),
    (2, ["group", "--group", "Q9"]),
    (3, ["classes", "--group", "A11"]),
], ids=["exit0-json", "exit0-out", "exit1", "exit2", "exit3"])
def test_console_entry_point_subprocess(code, argv, tmp_path, capsys):
    # main ends the child with os._exit after flushing: the same exit code,
    # stdout, stderr and --out bytes as run in process
    out = argv[-1] == "--out"
    child, here = tmp_path / "child.json", tmp_path / "here.json"
    proc = bvl_process(argv + [str(child)] * out, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv + [str(here)] * out, capsys)
    assert proc.returncode == code and proc.stdout + proc.stderr
    if out:
        assert child.read_text() == here.read_text() == proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_console_entry_point_closed_stdout_is_internal_error(unbuffered):
    # stdout is a pipe whose read end is closed before the child starts; a
    # buffered stdout fails at main's flush, an unbuffered one at run's
    # write: both exit 4, not 120 from a flush in interpreter teardown
    read, write = os.pipe()
    os.close(read)
    try:
        proc = bvl_process(["chartab", "--group", "A5"], env={"PYTHONUNBUFFERED": unbuffered},
                           stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (4, "error: internal: BrokenPipeError: [Errno 32] Broken pipe\n")
