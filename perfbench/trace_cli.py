"""Run one bvl command line with the public functions of each layer wrapped.

    PYTHONPATH=src python3 perfbench/trace_cli.py TRACE.json chartab --group A5

The wrappers live here, not in the library: each wrapped function is
replaced under every name a ``bvl`` module looks it up by, so callers that
imported it with ``from .x import f`` see the wrapper too.  Spans (name,
start, end, parent) and counters are kept in memory and written to
TRACE.json when the command ends.  Stdout and the exit code are the
command's own.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (module, function, span name): public functions whose calls become spans.
SPANNED = [
    ("catalog", "build_group", "catalog.build_group"),
    ("permgroup", "conjugacy_classes", "permgroup.conjugacy_classes"),
    ("permgroup", "subgroup_order", "permgroup.subgroup_order"),
    ("chartab", "character_table", "chartab.character_table"),
    ("chartab", "class_matrix", "chartab.class_matrix"),
    ("chartab", "verify_orthogonality", "chartab.verify_orthogonality"),
    ("structconst", "structure_constant_formula", "structconst.formula"),
    ("beauville", "search_beauville", "beauville.search"),
    ("beauville", "all_pairs_generate", "beauville.all_pairs_generate"),
    ("beauville", "is_generating_pair", "beauville.is_generating_pair"),
]

# (module, class, methods, counter name): methods too hot for spans, counted only.
COUNTED = [
    ("permgroup", "Permutation", ("__mul__",), "permgroup.perm_mul"),
    ("permgroup", "Permutation", ("inverse",), "permgroup.perm_inverse"),
    ("permgroup", "ClassMap", ("class_of",), "permgroup.class_of"),
    ("cyclotomic", "Cyclo", ("__mul__", "__rmul__"), "cyclotomic.mul"),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}
        # outcomes read from the public result objects of wrapped calls
        self.values = {"generating_pairs": 0, "pair_tests": 0, "types_examined": 0}

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, cls, methods, name: str) -> None:
        counter = self._counters.setdefault(name, itertools.count())
        tick = counter.__next__
        for attr in methods:
            orig = getattr(cls, attr)

            def wrapper(*args, _orig=orig):
                tick()
                return _orig(*args)

            setattr(cls, attr, functools.wraps(orig)(wrapper))

    def counts(self) -> dict[str, int]:
        # next() on an itertools.count returns how many times it was advanced
        return {name: next(c) for name, c in self._counters.items()}

    def _on_generating(self, result) -> None:
        self.values["generating_pairs"] += bool(result)

    def _on_gen_certificate(self, cert) -> None:
        self.values["pair_tests"] += cert.pairs_tested

    def _on_search(self, result) -> None:
        self.values["pair_tests"] += result.pair_tests
        self.values["types_examined"] += result.types_examined

    def install(self) -> None:
        """Wrap every SPANNED function and COUNTED method of the loaded bvl modules."""
        import bvl.cli  # noqa: F401  (loads every layer the command line uses)

        modules = {n[4:]: m for n, m in sys.modules.items() if n.startswith("bvl.")}
        hooks = {
            "beauville.is_generating_pair": self._on_generating,
            "beauville.all_pairs_generate": self._on_gen_certificate,
            "beauville.search": self._on_search,
        }
        for mod, fn_name, name in SPANNED:
            orig = getattr(modules[mod], fn_name)
            wrapped = self.span(name, orig, hooks.get(name))
            for m in modules.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        for mod, cls_name, methods, name in COUNTED:
            self.count(getattr(modules[mod], cls_name), methods, name)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts(), "values": self.values}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: trace_cli.py TRACE.json BVL-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import bvl.cli

    try:
        rc = tracer.span("cli.run", bvl.cli.run)(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
