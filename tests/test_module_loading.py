"""What each subcommand loads: bvl.cli registers beauville, chartab,
cyclotomic and structconst lazily, so their code runs only on first use.

Every check runs in a fresh interpreter: inside pytest every module has
long been imported by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_CLI = ROOT / "perfbench" / "trace_cli.py"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# Prints the bvl modules whose code has run: a lazy module not yet touched
# is still an importlib.util._LazyModule, not a plain module.
RAN = """
import sys, types
ran = sorted(n[4:] for n, m in sys.modules.items()
             if n.startswith("bvl.") and type(m) is types.ModuleType)
print(*ran, file=sys.stderr)
"""


def python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def bvl(*args, tracer=None):
    pre = [str(TRACE_CLI), str(tracer)] if tracer else ["-m", "bvl.cli"]
    return subprocess.run([sys.executable, *pre, *args], cwd=ROOT, env=ENV, capture_output=True)


EAGER = ["catalog", "cli", "numtheory", "permgroup"]


@pytest.mark.parametrize("argv,ran", [
    (["group", "--group", "A5"], EAGER),
    (["zsigmondy", "--q", "2", "--n", "6"], EAGER),
    (["beauville", "search", "--group", "L2:7"], ["beauville", *EAGER]),
    (["genclasses", "search", "--group", "A5"], ["beauville", *EAGER]),
    (["chartab", "--group", "A5"], sorted(["chartab", "cyclotomic", *EAGER])),
], ids=["group", "zsigmondy", "beauville-search", "genclasses-search", "chartab"])
def test_each_subcommand_runs_only_the_modules_it_calls(argv, ran):
    proc = python("import sys\nfrom bvl.cli import run\nassert run(sys.argv[1:]) == 0\n" + RAN,
                  *argv)
    assert proc.stderr.split() == ran


def test_import_of_cli_registers_every_traced_module_and_runs_none():
    # perfbench/trace_cli.py looks each SPANNED and COUNTED module up in
    # sys.modules right after `import bvl.cli`; a missing one is a KeyError
    code = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("trace_cli", {str(TRACE_CLI)!r})
trace_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_cli)
import bvl.cli
named = {{t[0] for t in trace_cli.SPANNED + trace_cli.COUNTED}}
missing = sorted(m for m in named if "bvl." + m not in sys.modules)
assert not missing, missing
{RAN}
trace_cli.Tracer().install()
"""
    assert python(code).stderr.split() == EAGER


@pytest.mark.parametrize("code", [
    # imported first, a module is kept: running chartab and cyclotomic a
    # second time would make a second Cyclo class, which Cyclo arithmetic refuses
    """
import sys
import bvl.chartab, bvl.cyclotomic
chartab, Cyclo = bvl.chartab, bvl.cyclotomic.Cyclo
import bvl.cli
assert bvl.cli.chartab is sys.modules["bvl.chartab"] is chartab
assert sys.modules["bvl.cyclotomic"].Cyclo is Cyclo
assert bvl.cli.run(["struct", "--group", "A5", "--classes", "5a,5a,3a", "--method", "both"]) == 0
""",
    # registered first, a module is an attribute of the package, as an import makes it
    """
import sys
import bvl.cli
import bvl.chartab
assert bvl.chartab is sys.modules["bvl.chartab"] is bvl.cli.chartab
assert callable(bvl.chartab.character_table)
from bvl.cyclotomic import Cyclo
assert bvl.chartab.Cyclo is Cyclo
assert bvl.cli.run(["struct", "--group", "A5", "--classes", "5a,5a,3a", "--method", "both"]) == 0
""",
], ids=["chartab-then-cli", "cli-then-chartab"])
def test_either_import_order_runs_each_module_once(code):
    python(code)


@pytest.mark.parametrize("argv", [
    ["chartab", "--group", "A5"],
    ["beauville", "search", "--group", "L2:7", "--format", "json"],
], ids=["chartab", "beauville-search"])
def test_traced_run_prints_what_the_untraced_run_prints(argv, tmp_path):
    traced = bvl(*argv, tracer=tmp_path / "trace.json")
    plain = bvl(*argv)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert (tmp_path / "trace.json").stat().st_size > 0
