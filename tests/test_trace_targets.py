"""Every function and method the traced benchmark run wraps still exists in bvl.

perfbench/trace_cli.py names its targets as strings; a rename inside bvl
would otherwise only show up as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"


def _trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve():
    spanned = _trace_cli().SPANNED
    assert ("chartab", "class_matrix", "chartab.class_matrix") in spanned
    assert ("structconst", "structure_constant_formula", "structconst.formula") in spanned
    for mod, fn_name, _ in spanned:
        assert callable(getattr(importlib.import_module(f"bvl.{mod}"), fn_name)), (mod, fn_name)


def test_counted_methods_resolve():
    counted = _trace_cli().COUNTED
    assert ("permgroup", "ClassMap", ("class_of",), "permgroup.class_of") in counted
    for mod, cls_name, methods, _ in counted:
        cls = getattr(importlib.import_module(f"bvl.{mod}"), cls_name)
        for method in methods:
            assert callable(getattr(cls, method)), (mod, cls_name, method)
