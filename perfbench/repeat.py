"""Repeat perfbench/run.py over several seeds and report medians and spreads.

    python3 perfbench/repeat.py --runs 10 --out perfbench/BENCH_<rev>.json

For each workload it makes --runs untraced runs, seeds --first-seed onward,
taking the workloads in turn so that slow drift in the machine spreads over
all of them.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
beside the metric's bound from BENCHMARK.json.  With --trace-runs it adds
that many traced runs per workload for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0])["context"]
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    traces: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = one_run(w, args.first_seed + i, seconds, 0)
            runs[w].append(result)
            print(f"{w} seed {args.first_seed + i}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    for i in range(args.trace_runs):
        for w in workloads:
            traces[w].append(one_run(w, args.first_seed + i, seconds, 1))

    report = {"context": runs[workloads[0]][0]["context"], "runs": args.runs,
              "run_seconds": seconds, "workloads": {}}
    steady = True
    for w in workloads:
        entry = {"attempted": sum(r["attempted"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w]),
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            d = describe([r["metrics"][m["name"]]["value"] for r in runs[w]])
            d.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = d
            within = m["name"] == "setup_s" or d["spread"] < m["bound"] / 3
            steady = steady and within
            print(f"{w:16} {m['name']:12} median {d['median']:.5g} {m['unit']:5} "
                  f"Q1 {d['q1']:.5g} Q3 {d['q3']:.5g} spread {d['spread']:.4f} "
                  f"bound {m['bound']}{'' if within else '  <-- spread above bound/3'}")
        entry["unscaled"] = {}
        for key in ("wall_s_unscaled", "setup_s_unscaled"):
            d = describe([r["context"][key] for r in runs[w]])
            entry["unscaled"][key] = d
            print(f"{w:16} {key:16} median {d['median']:.5g} s     spread {d['spread']:.4f} "
                  "(before host-speed rescaling; not a metric)")
        if traces[w]:
            entry["per_layer"] = {
                m["name"]: {"median": statistics.median(t["metrics"][m["name"]]["value"]
                                                        for t in traces[w]),
                            "unit": m["unit"]}
                for m in spec["per_layer"]
            }
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
