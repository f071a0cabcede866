"""Command-line surface: group inspection, tables, structure constants,
Beauville search/verify, generating-class search/verify, Zsigmondy parts.

Exit codes: 0 success, 1 negative mathematical verdict, 2 usage error
(argparse or DomainError, raised where input is read), 3 capacity error,
4 internal fault (any other exception, or a stdout that cannot be written).
JSON output is byte-stable for a fixed invocation and seed.  Each
subcommand returns (exit code, JSON payload, text); run writes them once,
--out first and then stdout, so a verdict that exits 1 or 3 prints too.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import build_group, read_json
from .numtheory import CapacityError, DomainError, zsigmondy_part


def _lazy(name: str):
    """bvl.<name>, run on its first attribute access unless already imported."""
    fullname = "bvl." + name
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules["bvl"], name, module)
    return sys.modules[fullname]


# Each subcommand runs only the modules it calls; perfbench/trace_cli.py finds all.
beauville, chartab, cyclotomic, structconst = map(
    _lazy, ("beauville", "chartab", "cyclotomic", "structconst"))

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _emit(args, payload: dict, text: str) -> None:
    """Write --out first, so a path that cannot be written prints nothing."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(data)
        except OSError as exc:  # a directory, a missing parent, or unwritable
            raise DomainError(f"--out {args.out}: cannot write ({exc.strerror})") from None
    sys.stdout.write(data if args.format == "json" else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_group(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    payload = {
        "spec": args.group,
        "name": G.name,
        "degree": G.degree,
        "order": G.order,
        "base": G.base,
        "basic_orbit_sizes": G.basic_orbit_sizes,
        "num_strong_generators": len(G.strong_generators),
    }
    text = (
        f"group {G.name}: degree {G.degree}, order {G.order}\n"
        f"base {G.base}, basic orbits {G.basic_orbit_sizes}"
    )
    return EXIT_OK, payload, text


def _cmd_classes(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    cd = G.conjugacy_data()
    payload = {
        "spec": args.group,
        "order": G.order,
        "mode": "FULL",
        "classes": [
            {
                "label": c.label,
                "size": c.size,
                "element_order": c.element_order,
                "inverse_class": c.inverse_class,
                "power_classes": {str(k): v for k, v in sorted(c.power_classes.items())},
                "representative": c.representative.to_list(),
            }
            for c in cd.classes
        ],
    }
    lines = [f"{len(cd.classes)} classes of {G.name} (order {G.order})"]
    lines.append(f"{'label':>6} {'size':>8} {'order':>6} {'inverse':>8}")
    for c in cd.classes:
        lines.append(f"{c.label:>6} {c.size:>8} {c.element_order:>6} {c.inverse_class:>8}")
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_chartab(args) -> tuple[int, dict, str]:
    T = chartab.character_table(build_group(args.group))
    payload = T.to_json_dict()
    payload["orthogonality_verified"] = chartab.verify_orthogonality(T)
    labels = [c.label for c in T.cmap.classes]
    width = max(8, max(len(lbl) for lbl in labels) + 2)
    lines = [
        f"character table of {T.group_name} (order {T.group_order}, "
        f"conductor {T.conductor}, prime {T.prime})"
    ]
    lines.append(" " * 6 + "".join(f"{lbl:>{width}}" for lbl in labels))
    for deg, row in zip(T.degrees, T.rows):
        cells = []
        for v in row:
            s = repr(v)
            cells.append(s if len(s) <= width - 1 else s[: width - 2] + "~")
        lines.append(f"chi{deg:<4}" + "".join(f"{c:>{width}}" for c in cells))
    return EXIT_OK, payload, "\n".join(lines)


def _parse_class_triple(text: str) -> tuple[str, str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(parts):
        raise DomainError(f"--classes needs three comma-separated labels, got {text!r}")
    return parts[0], parts[1], parts[2]


def _cmd_struct(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    c1, c2, c3 = _parse_class_triple(args.classes)
    results = {}
    if args.method in ("formula", "both"):
        T = chartab.character_table(G)
        results["formula"] = structconst.structure_constant_formula(T, c1, c2, c3)
    if args.method in ("brute", "both"):
        results["brute"] = structconst.structure_constant_brute(G, c1, c2, c3)
    payload = {
        "spec": args.group,
        "classes": [c1, c2, c3],
        "method": args.method,
        "n": results,
    }
    if len(results) == 2 and results["formula"] != results["brute"]:
        raise chartab.TableError(f"formula/brute disagree on {(c1, c2, c3)}: {results}")
    shown = " ".join(f"{k}={v}" for k, v in sorted(results.items()))
    return EXIT_OK, payload, f"n({c1},{c2},{c3}) in {G.name}: {shown}"


def _cmd_charbound(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    structconst.require_meta(G)
    report = structconst.char_bound_check(G, chartab.character_table(G))
    payload = {
        "spec": args.group,
        "bound": report.bound,
        "per_class_max": {k: v for k, v in sorted(report.per_class_max.items())},
        "pass": report.passed,
    }
    lines = [f"character bound check for {G.name}: |W| = {report.bound}"]
    for label, value in sorted(report.per_class_max.items()):
        lines.append(f"  {label:>6}: max |chi| = {value:.6f}")
    lines.append("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_NEGATIVE, payload, "\n".join(lines)


def _cmd_pointcount(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    c1, c2, c3 = _parse_class_triple(args.classes)
    report = structconst.point_count_probe(G, c1, c2, c3)
    payload = {
        "spec": args.group,
        "classes": list(report.labels),
        "n": report.n_value,
        "class_size": report.class_size,
        "exact_count": report.exact_count,
        "predicted": report.predicted,
        "ratio": [report.ratio.numerator, report.ratio.denominator],
    }
    text = (
        f"triple variety points for {G.name} {report.labels}: "
        f"exact {report.exact_count} = n({report.n_value}) * |C1|({report.class_size}), "
        f"leading term {report.predicted}, ratio {report.ratio}"
    )
    return EXIT_OK, payload, text


def _cmd_beauville_search(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    strategy = "COPRIME_FIRST" if args.strategy == "coprime" else "EXHAUSTIVE_CLASSES"
    result = beauville.search_beauville(
        G, strategy=strategy, seed=args.seed, require_hyperbolic=args.require_hyperbolic,
        budget=beauville.DEFAULT_TYPE_BUDGET if args.budget is None else args.budget,
    )
    if result.status == beauville.STATUS_CERTIFICATE:
        cert = result.certificate
        cert.group = args.group
        payload = cert.to_json_dict()
        text = (
            f"Beauville structure found for {G.name}: orders {cert.orders}, "
            f"sigma classes {cert.sigma_classes[0]} | {cert.sigma_classes[1]}"
        )
        return EXIT_OK, payload, text
    payload = {
        "spec": args.group,
        "status": result.status,
        "types_examined": result.types_examined,
        "pair_tests": result.pair_tests,
    }
    if result.status == beauville.STATUS_NONE_EXHAUSTED:
        text = f"NONE_EXHAUSTED: {G.name} admits no unmixed Beauville structure"
        return EXIT_NEGATIVE, payload, text
    return EXIT_CAPACITY, payload, f"NONE_BUDGET: search budget exhausted on {G.name}"


def _cmd_beauville_verify(args) -> tuple[int, dict, str]:
    what = f"certificate {args.cert}"
    cert = beauville.BeauvilleCertificate.from_json_dict(read_json(args.cert, what), what)
    G = build_group(cert.group)
    ok, reason = beauville.verify_certificate(G, cert, require_hyperbolic=args.require_hyperbolic)
    payload = {"group": cert.group, "verified": ok, "reason": reason}
    verdict = "VERIFIED" if ok else "REFUSED: " + reason
    return EXIT_OK if ok else EXIT_NEGATIVE, payload, f"certificate for {cert.group}: {verdict}"


def _cmd_genclasses_search(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    pairs = beauville.search_gen_classes(G)
    payload = {"spec": args.group, "pairs": [list(p) for p in pairs]}
    if pairs:
        shown = ", ".join(f"({c},{d})" for c, d in pairs)
        return EXIT_OK, payload, f"all-pairs generating class pairs of {G.name}: {shown}"
    return EXIT_NEGATIVE, payload, f"no all-pairs generating class pairs in {G.name}"


def _cmd_genclasses_verify(args) -> tuple[int, dict, str]:
    G = build_group(args.group)
    cert = beauville.all_pairs_generate(G, args.c, args.d)
    payload = {
        "spec": args.group,
        "c": list(cert.c_labels),
        "d": cert.d_label,
        "exhaustive": True,
        "pairs_tested": cert.pairs_tested,
        "counterexample": list(cert.counterexample) if cert.counterexample else None,
    }
    head = f"({args.c}, {args.d}) in {G.name}"
    if cert.all_generate:
        return EXIT_OK, payload, f"{head}: all {cert.pairs_tested} pairs generate"
    return EXIT_NEGATIVE, payload, f"{head}: counterexample found"


def _cmd_zsigmondy(args) -> tuple[int, dict, str]:
    res = zsigmondy_part(args.q, args.n)
    payload = {
        "q": res.q,
        "n": res.n,
        "phi_value": res.phi_value,
        "primitive_part": res.primitive_part,
        "primitive_primes": sorted(res.primitive_primes),
    }
    text = (
        f"Phi_{args.n}({args.q}) = {res.phi_value}, "
        f"primitive part {res.primitive_part}, "
        f"primitive primes {sorted(res.primitive_primes) or '{}'}"
    )
    return EXIT_OK, payload, text


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, group_flag: bool = True) -> None:
    if group_flag:
        p.add_argument("--group", required=True, help="group spec: A5, S6, L2:7, L3:3, file:PATH")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON payload to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvl",
        description="Beauville structures and generating class pairs in small finite simple groups",
    )
    parser.add_argument("--version", action="version", version=f"bvl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="build a group and report its order")
    _add_common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("classes", help="conjugacy classes with power maps")
    _add_common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("chartab", help="exact character table")
    _add_common(p)
    p.set_defaults(func=_cmd_chartab)

    p = sub.add_parser("struct", help="structure constant n(C1,C2,C3)")
    _add_common(p)
    p.add_argument("--classes", required=True, help="three labels: C1,C2,C3")
    p.add_argument("--method", choices=("formula", "brute", "both"), default="formula")
    p.set_defaults(func=_cmd_struct)

    p = sub.add_parser("charbound", help="character bound on regular semisimple classes")
    _add_common(p)
    p.set_defaults(func=_cmd_charbound)

    p = sub.add_parser("pointcount", help="triple-variety point-count probe")
    _add_common(p)
    p.add_argument("--classes", required=True, help="three regular semisimple labels")
    p.set_defaults(func=_cmd_pointcount)

    p = sub.add_parser("beauville", help="search or verify Beauville structures")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    ps = bsub.add_parser("search")
    _add_common(ps)
    ps.add_argument("--strategy", choices=("coprime", "exhaustive"), default="coprime")
    ps.add_argument("--require-hyperbolic", action="store_true")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--budget", type=int)
    ps.set_defaults(func=_cmd_beauville_search)
    pv = bsub.add_parser("verify")
    pv.add_argument("--cert", required=True, help="certificate JSON file")
    pv.add_argument("--require-hyperbolic", action="store_true")
    _add_common(pv, group_flag=False)
    pv.set_defaults(func=_cmd_beauville_verify)

    p = sub.add_parser("genclasses", help="all-pairs generating class pairs")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    gs = gsub.add_parser("search")
    _add_common(gs)
    gs.set_defaults(func=_cmd_genclasses_search)
    gv = gsub.add_parser("verify")
    _add_common(gv)
    gv.add_argument("--c", required=True, help="class label for C")
    gv.add_argument("--d", required=True, help="class label for D")
    gv.set_defaults(func=_cmd_genclasses_verify)

    p = sub.add_parser("zsigmondy", help="cyclotomic value and Zsigmondy primitive part")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, group_flag=False)
    p.set_defaults(func=_cmd_zsigmondy)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, payload, text = args.func(args)
        _emit(args, payload, text)
        return code
    except DomainError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    """The `bvl` console script and `python -m bvl.cli`: run, flush, os._exit.

    Once run has written its output, nothing reads the interpreter's state,
    so the process ends without module teardown, garbage collection or
    deallocation.  Atexit handlers that site hooks register do not run; bvl
    registers none.  Embedders call run(argv), which returns the exit code
    and never ends the process.
    """
    rc = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:  # buffered output to a closed stdout: exit 4, as from run
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = EXIT_INTERNAL
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    main()
