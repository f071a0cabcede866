"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bvl"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so a check the library relies on must raise
    # explicitly (see conjugacy_classes and cyclotomic_poly_eval)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # an underscore name belongs to its module; a name that another module
    # needs is public in its owner (dunders, like __version__, excepted)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("bvl"))
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not lines, f"{path.name}: private name imported at lines {lines}"


EXITS = {("os", "_exit"), ("sys", "exit")}


def _exit_calls(tree):
    """Lines in tree that call os._exit or sys.exit, or import either by name."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and (node.func.value.id, node.func.attr) in EXITS
            or isinstance(node, ast.ImportFrom) and any((node.module, a.name) in EXITS for a in node.names)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_main_ends_the_process(path):
    # the console script's main ends the process, with os._exit once run has
    # written its output; run(argv) and every library function return to
    # their caller, so an embedder's process outlives any bvl call
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "cli.py":
        main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        allowed = _exit_calls(main)
        assert allowed, "cli.main must end the process itself"
    lines = sorted(_exit_calls(tree) - allowed)
    assert not lines, f"{path.name}: process exit at lines {lines}"


def _calls_to(name, tree):
    """Lines in tree that call the bare name."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name}


def _stdout_writes(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout.write"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_run_writes_output(path):
    # each subcommand returns (exit code, payload, text) and run hands them
    # to _emit, the one writer of --out and stdout; diagnostics go to stderr
    tree = ast.parse(path.read_text(), filename=str(path))
    writes, emits = _stdout_writes(tree), _calls_to("_emit", tree)
    prints = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"
              and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                          for k in node.keywords)}
    if path.name == "cli.py":
        functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        writer, caller = _stdout_writes(functions["_emit"]), _calls_to("_emit", functions["run"])
        assert writer and caller, f"cli.run must call cli._emit; called at lines {sorted(emits)}"
        writes -= writer
        emits -= caller
    assert not emits, f"{path.name}: _emit called outside cli.run at lines {sorted(emits)}"
    assert not writes, f"{path.name}: sys.stdout.write outside cli._emit at lines {sorted(writes)}"
    assert not prints, f"{path.name}: print without file=sys.stderr at lines {sorted(prints)}"


JSON_PARSERS = {"load", "loads"}


def _json_parses(tree):
    """Lines in tree that call json.load or json.loads, or import either by name."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "json" and node.attr in JSON_PARSERS
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(a.name in JSON_PARSERS for a in node.names)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_catalog_read_json_parses_json(path):
    # group files and certificates are read by catalog.read_json, which turns
    # every file that gives no JSON value into a usage error naming the input
    tree = ast.parse(path.read_text(), filename=str(path))
    parses = _json_parses(tree)
    if path.name == "catalog.py":
        reader = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "read_json")
        inside = _json_parses(reader)
        assert inside, "catalog.read_json must parse the JSON inputs"
        parses -= inside
    assert not parses, f"{path.name}: JSON parsed outside catalog.read_json at lines {sorted(parses)}"


def _module_level_imports(name):
    """The bvl modules that bvl.<name> imports at module level."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bvl."):
            found.add(node.module[4:])
        elif isinstance(node, ast.Import):
            found |= {a.name[4:] for a in node.names if a.name.startswith("bvl.")}
    return {m for m in found if (SRC / f"{m}.py").exists()}


def test_group_commands_do_not_import_the_table_layers():
    # bvl.cli loads chartab, cyclotomic and structconst lazily, on first use;
    # one module-level import from a module every group command runs, or
    # from beauville, would compile them on every start again
    reached = {}
    todo = ["cli", "catalog", "permgroup", "numtheory", "beauville"]
    while todo:
        name = todo.pop()
        for dep in _module_level_imports(name) - reached.keys():
            reached[dep] = name
            todo.append(dep)
    bad = {m: reached[m] for m in ("chartab", "cyclotomic", "structconst") if m in reached}
    assert not bad, f"imported at module level (module: importer): {bad}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "permgroup.py"],
                         ids=lambda p: p.name)
def test_class_map_internals_stay_in_permgroup(path):
    # image bytes and the element-to-class table belong to permgroup; other
    # modules ask ClassMap through its methods (class_of, elements_of,
    # triple_counts), as the witness walk does with class_of(y * x)
    private = {"_table", "_slots", "_identity", "_index", "_members", "_triples", "_elements"}
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not lines, f"{path.name}: private ClassMap attribute read at lines {lines}"


def _stores_into(attr, tree):
    """Lines in tree that write into the container held by attribute attr."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear"}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Attribute) and node.value.attr == attr
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in mutators
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == attr}


def test_triple_rows_are_stored_only_by_triple_counts():
    # the memo of T rows has one writer, the Galois-folded scan; a reader
    # that needs other rows (the class-type search) reads them off its rows
    tree = ast.parse((SRC / "permgroup.py").read_text())
    class_map = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ClassMap")
    method = next(n for n in class_map.body
                  if isinstance(n, ast.FunctionDef) and n.name == "triple_counts")
    inside, everywhere = _stores_into("_triples", method), _stores_into("_triples", tree)
    assert inside and everywhere == inside, f"_triples stored into at lines {sorted(everywhere - inside)}"


def test_class_table_is_read_only_by_slots():
    # the element-to-class table stores one element of each pair {g, g^-1};
    # ClassMap._slots finds the other through its inverse, so it is the one
    # reader: a direct lookup would miss half of G.  The walk that fills the
    # table holds it as a local, before any ClassMap reads it.
    tree = ast.parse((SRC / "permgroup.py").read_text())
    class_map = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ClassMap")
    method = next(n for n in class_map.body
                  if isinstance(n, ast.FunctionDef) and n.name == "_slots")
    reads = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "_table" and not isinstance(node.ctx, ast.Store)}
    inside = {node.lineno for node in ast.walk(method) if isinstance(node, ast.Attribute)
              and node.attr == "_table"}
    assert inside and reads == inside, f"_table read at lines {sorted(reads - inside)}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cyclotomic.py"],
                         ids=lambda p: p.name)
def test_cyclotomic_coefficients_stay_in_cyclotomic(path):
    # the coefficient dicts of Cyclo and their reduction tables belong to
    # cyclotomic; other modules compute through Cyclo's operators and
    # Cyclo.dot, so the multiply-accumulate loop has one home
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {"Conductor", "coeffs", "reduce_raw"}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private
             or isinstance(node, ast.ImportFrom) and any(a.name in private for a in node.names)]
    assert not lines, f"{path.name}: cyclotomic internals used at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_family_names_stay_in_the_catalog(path):
    # each family is one entry of catalog.FAMILIES: no other module names a
    # family or parses a spec, so a new family touches the catalog alone
    if path.name == "catalog.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in ("ALT", "SYM", "PSL2", "PSL3")
                    or isinstance(node, ast.Name) and node.id == "parse_spec"
                    or isinstance(node, ast.alias) and node.name == "parse_spec"
                    or isinstance(node, ast.Attribute) and node.attr == "parse_spec"})
    assert not lines, f"{path.name}: family name or parse_spec at lines {lines}"


def _subgroup_order_calls(tree):
    """Lines in tree that call subgroup_order, by bare name or as an attribute."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == "subgroup_order"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_subgroup_order_is_called_only_by_the_generation_test(path):
    # permgroup.is_generating_pair is the one generation test: the witness
    # walk, the all-pairs scan, certificate checks and the class walk's
    # conjugators ask it whether G = <x, y>, and it alone asks subgroup_order
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = _subgroup_order_calls(tree)
    if path.name == "permgroup.py":
        test = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef) and n.name == "is_generating_pair")
        inside = _subgroup_order_calls(test)
        assert inside, "permgroup.is_generating_pair must call subgroup_order"
        calls -= inside
    assert not calls, f"{path.name}: subgroup_order called at lines {sorted(calls)}"


def _certificate_constructions(tree):
    """Lines in tree that call BeauvilleCertificate, by bare name or as an attribute."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == "BeauvilleCertificate"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_verifier_builds_certificates(path):
    # verify_beauville builds a certificate only after the generation, sigma
    # and hyperbolicity checks pass, so every certificate bvl writes has
    # passed them; from_json_dict parses through cls(...), and
    # verify_certificate re-checks whatever it parses
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = _certificate_constructions(tree)
    if path.name == "beauville.py":
        verifier = next(n for n in tree.body
                        if isinstance(n, ast.FunctionDef) and n.name == "verify_beauville")
        inside = _certificate_constructions(verifier)
        assert inside, "beauville.verify_beauville must build the certificate"
        calls -= inside
    assert not calls, f"{path.name}: BeauvilleCertificate built at lines {sorted(calls)}"
