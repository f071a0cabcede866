"""End-to-end benchmark of the bvl command line.

    python3 perfbench/run.py --workload chartab-m12 --seed 0 --seconds 30 --trace 0

Run it from the repository root; it uses the library under ``src/``.  Every
workload is a closed loop with one client: each ``python -m bvl.cli ...``
child is spawned only after the previous one has exited, one at a time.
Each child's output is checked; a child whose check fails counts as a
failure and its time is not used.

``--trace 0`` times the children with nothing wrapped and reports the
end-to-end metrics of BENCHMARK.json.  The children run pinned to one CPU,
beside a host-speed probe (perfbench/probe.py) at the lowest priority on the
same CPU; each child's time is rescaled by how fast the probe ran during it,
so that the host speeding up or slowing down between runs cancels out.
``--trace 1`` alternates an untraced child with a traced one
(perfbench/trace_cli.py), neither pinned nor rescaled, and reports the per-layer
metrics; their times include the wrappers' cost, so never compare them with
``wall_s``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every child is killed once the run has lasted this long, so that a hung
# command line cannot keep the benchmark past its 180-second limit.
RUN_DEADLINE_S = 170.0
# `bvl group` repetitions whose median is setup_s.
SETUP_REPEATS = 21
# CPU seconds of one probe chunk at the reference host speed: timed values
# are reported as the seconds they would take on a host where a probe chunk,
# interleaved with a child, takes this long.  A fixed constant, so that
# parent and change are rescaled alike.
PROBE_REF_S = 0.0006
# Fewest probe chunks a child's rescaling is averaged over; a shorter child
# borrows the chunks on either side of it.
PROBE_MIN_CHUNKS = 8

# Stdout digests of the byte-stable workloads, recorded at commit df24718.
EXPECTED_SHA256 = {
    "chartab-m12": "a477de581aca778214a44e69534375a9ea9abcb4726c4c792307a7a5222832ae",
    "genclasses-m11": "a28b0be10236b6b5ac2198db754b24d6cc79686783b4509132c224998156f889",
}
GROUP_ORDERS = {"file:m12.json": 95040, "file:m11.json": 7920, "L2:25": 7800}


@dataclass
class Sample:
    """One finished child: its time from spawn to exit and what it left."""

    seconds: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    start: float = 0.0  # perf_counter() at spawn
    end: float = 0.0  # perf_counter() at exit


@dataclass(frozen=True)
class Workload:
    name: str
    group: str  # the --group spec, also used for the setup_s command
    argv: tuple[str, ...]  # command-line arguments after `python -m bvl.cli`
    seeded: bool = False  # takes --seed and --out (beauville search)

    def command(self, cli_seed: int, out: Path) -> list[str]:
        if self.seeded:
            return [*self.argv, "--seed", str(cli_seed), "--out", str(out)]
        return list(self.argv)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chartab-m12", "file:m12.json",
                 ("chartab", "--group", "file:m12.json", "--format", "json")),
        Workload("genclasses-m11", "file:m11.json",
                 ("genclasses", "search", "--group", "file:m11.json", "--format", "json")),
        Workload("beauville-l2_25", "L2:25",
                 ("beauville", "search", "--group", "L2:25", "--format", "json"),
                 seeded=True),
    )
}


# ---------------------------------------------------------------------------
# children


class Runner:
    """Spawns children one at a time and kills any still alive at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, args: list[str]) -> Sample:
        """Run `python ARGS` from the repository root and reap it with wait4."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, cwd=ROOT, env=self.env
        )
        timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        return Sample(
            seconds=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            returncode=proc.returncode,
            stdout=out,
            start=start,
            end=end,
        )

    def cli(self, argv: list[str]) -> Sample:
        return self.spawn(["-m", "bvl.cli", *argv])


class Probe:
    """perfbench/probe.py on CPU `cpu` at nice 19, for as long as the with-block."""

    def __init__(self, out: Path, cpu: int):
        self.out, self.cpu = out, cpu
        self.ends: list[float] = []
        self.cpu_s: list[float] = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.out), str(self.cpu)],
            stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline().strip() != b"ready":
            self._reap()
            raise RuntimeError("host-speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._reap()
        if exc[0] is None:
            records = json.loads(self.out.read_text())
            self.ends = [end for end, _ in records]
            self.cpu_s = [cpu for _, cpu in records]

    def _reap(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def rescale(self, sample: Sample) -> float:
        """The sample's seconds at the reference host speed: its wall time
        times PROBE_REF_S over the probe's mean chunk CPU time during it."""
        i = bisect.bisect_right(self.ends, sample.start)
        j = bisect.bisect_right(self.ends, sample.end)
        while j - i < PROBE_MIN_CHUNKS and (i > 0 or j < len(self.ends)):
            i, j = max(0, i - 1), min(len(self.ends), j + 1)
        if i == j:
            raise RuntimeError("the host-speed probe recorded no chunk")
        return sample.seconds * PROBE_REF_S / statistics.fmean(self.cpu_s[i:j])


# ---------------------------------------------------------------------------
# correctness checks: each returns None when the output is right, else why not


def check_group(spec: str, sample: Sample) -> str | None:
    if sample.returncode != 0:
        return f"exit code {sample.returncode}"
    try:
        order = json.loads(sample.stdout)["order"]
    except (ValueError, KeyError, TypeError):
        return "group stdout is not the expected JSON"
    if order != GROUP_ORDERS[spec]:
        return f"group order {order}, expected {GROUP_ORDERS[spec]}"
    return None


def check_output(wl: Workload, sample: Sample, out: Path, runner: Runner) -> str | None:
    if sample.returncode != 0:
        return f"exit code {sample.returncode}"
    expected = EXPECTED_SHA256.get(wl.name)
    if expected and hashlib.sha256(sample.stdout).hexdigest() != expected:
        return "stdout differs from the recorded digest"
    try:
        payload = json.loads(sample.stdout)
    except ValueError:
        return "stdout is not JSON"
    if wl.name == "chartab-m12":
        if payload.get("orthogonality_verified") is not True:
            return "orthogonality not verified"
        if sum(d * d for d in payload.get("degrees", [])) != 95040:
            return "squared degrees do not sum to |M12|"
    elif wl.name == "genclasses-m11":
        if ["11a", "8a"] not in payload.get("pairs", []):
            return "pair (11a, 8a) missing"
    elif wl.name == "beauville-l2_25":
        try:
            if not out.exists() or out.read_bytes() != sample.stdout:
                return "--out certificate differs from stdout"
            verdict = runner.cli(["beauville", "verify", "--cert", str(out), "--format", "json"])
        finally:
            out.unlink(missing_ok=True)
        if verdict.returncode != 0 or b'"verified":true' not in verdict.stdout:
            return "certificate refused by beauville verify"
    return None


# ---------------------------------------------------------------------------
# measurement


def cli_seeds(seed: int):
    """The --seed values a run passes to a seeded workload, one per child."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def closed_loop(seconds: float, step) -> None:
    """Call step() once, then again while the next call's expected midpoint,
    by the median step so far, falls inside a window of `seconds`."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2 >= seconds:
            return


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"check failed: {error}", file=sys.stderr)
            return False
        return True


def end_to_end(wl: Workload, seed: int, seconds: float, runner: Runner, tmp: Path, tally: Tally):
    """The setup_s children, then the closed loop of timed workload children."""
    group_argv = ["group", "--group", wl.group, "--format", "json"]
    setup: list[Sample] = []
    for _ in range(SETUP_REPEATS):
        s = runner.cli(group_argv)
        if tally.record(check_group(wl.group, s)):
            setup.append(s)
    samples: list[Sample] = []
    seeds = cli_seeds(seed)
    out = tmp / "out.json"

    def step():
        s = runner.cli(wl.command(next(seeds), out))
        if tally.record(check_output(wl, s, out, runner)):
            samples.append(s)

    closed_loop(seconds, step)
    return setup, samples


def summarize_end_to_end(setup: list[Sample], samples: list[Sample], tally: Tally, rescale) -> dict:
    """End-to-end metric values; failed children are counted, never timed.
    rescale(sample) gives a child's seconds at the reference host speed."""
    return {
        "wall_s": statistics.median(rescale(s) for s in samples),
        "setup_s": statistics.median(rescale(s) for s in setup),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(trace: dict) -> dict:
    """Per-layer values from one trace_cli.py dump."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1
    counts, values = trace["counts"], trace["values"]
    gen_calls = calls.get("beauville.is_generating_pair", 0)
    return {
        "catalog.build_group_s": total.get("catalog.build_group", 0.0),
        "permgroup.conjugacy_classes_s": total.get("permgroup.conjugacy_classes", 0.0),
        "permgroup.perm_mul_count": counts["permgroup.perm_mul"],
        "permgroup.perm_inverse_count": counts["permgroup.perm_inverse"],
        "permgroup.class_of_count": counts["permgroup.class_of"],
        "permgroup.subgroup_order_s": total.get("permgroup.subgroup_order", 0.0),
        "permgroup.subgroup_order_count": calls.get("permgroup.subgroup_order", 0),
        "chartab.class_matrix_s": total.get("chartab.class_matrix", 0.0),
        "chartab.class_matrix_count": calls.get("chartab.class_matrix", 0),
        "chartab.character_table_self_s": self_time.get("chartab.character_table", 0.0),
        "chartab.verify_orthogonality_s": total.get("chartab.verify_orthogonality", 0.0),
        "cyclotomic.mul_count": counts["cyclotomic.mul"],
        "structconst.formula_s": total.get("structconst.formula", 0.0),
        "structconst.formula_count": calls.get("structconst.formula", 0),
        "beauville.search_self_s": self_time.get("beauville.search", 0.0),
        "beauville.is_generating_pair_s": total.get("beauville.is_generating_pair", 0.0),
        "beauville.is_generating_pair_count": gen_calls,
        "beauville.generating_ratio": values["generating_pairs"] / gen_calls if gen_calls else 0.0,
        "beauville.pair_tests": values["pair_tests"],
        "beauville.types_examined": values["types_examined"],
        "cli.run_s": total["cli.run"],
    }


def pair_metrics(plain: Sample, traced_child: Sample, trace: dict) -> dict:
    """Per-layer values of one untraced and one traced child of the same command."""
    m = layer_metrics(trace)
    m["cli.cpu_s"] = plain.cpu_s
    m["cli.stdout_bytes"] = len(plain.stdout)
    m["trace_overhead_frac"] = traced_child.seconds / plain.seconds - 1.0
    return m


def traced(wl: Workload, seed: int, seconds: float, runner: Runner, tmp: Path, tally: Tally):
    """Pairs of one untraced and one traced child with the same arguments."""
    argv = wl.command(next(cli_seeds(seed)), tmp / "out.json")
    trace_path = tmp / "trace.json"
    pairs: list[dict] = []

    def step():
        plain = runner.cli(argv)
        ok = tally.record(check_output(wl, plain, tmp / "out.json", runner))
        tr = runner.spawn([str(HERE / "trace_cli.py"), str(trace_path), *argv])
        ok = tally.record(check_output(wl, tr, tmp / "out.json", runner)) and ok
        if ok:
            pairs.append(pair_metrics(plain, tr, json.loads(trace_path.read_text())))

    closed_loop(seconds, step)
    return pairs


# ---------------------------------------------------------------------------
# reporting


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def format_metrics(values: dict, declared: list[dict]) -> dict:
    """{name: {value, unit}} for exactly the declared metrics."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child and the probe are reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bvl" / "cli.py").exists():
        print(f"error: no bvl sources under {SRC}", file=sys.stderr)
        return 2
    spec = declared_metrics()
    context = run_context(args)
    wl = WORKLOADS[args.workload]
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    tally = Tally()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        # warm-up: compiles bytecode and fails fast when the program is broken
        warm = runner.cli(["group", "--group", wl.group, "--format", "json"])
        error = check_group(wl.group, warm)
        if error is not None:
            print(f"error: warm-up `bvl group --group {wl.group}` failed: {error}", file=sys.stderr)
            return 1
        if args.trace:
            pairs = traced(wl, args.seed, args.seconds, runner, tmp, tally)
            if not pairs:
                print("error: no traced pair passed its checks", file=sys.stderr)
                return 1
            # median_low keeps each value one that was measured, and counts whole
            values = {k: statistics.median_low(p[k] for p in pairs) for k in pairs[0]}
            metrics = format_metrics(values, spec["per_layer"])
        else:
            # the children and the probe share one CPU; the benchmark waits on it too
            cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            with Probe(tmp / "probe.json", cpu) as probe:
                setup, samples = end_to_end(wl, args.seed, args.seconds, runner, tmp, tally)
            if not samples or not setup:
                print("error: no child passed its checks", file=sys.stderr)
                return 1
            values = summarize_end_to_end(setup, samples, tally, probe.rescale)
            metrics = format_metrics(values, spec["end_to_end"])
            walls = [probe.rescale(s) for s in samples]
            tail = tail_percentile(walls)
            context["cpu"] = cpu
            context["wall_s_samples"] = len(walls)
            context["wall_s_tail"] = (
                {"percentile": tail[0], "value": tail[1]} if tail
                else "none: fewer than 11 samples, so no percentile has 10 beyond it"
            )
            context["wall_s_unscaled"] = statistics.median(s.seconds for s in samples)
            context["setup_s_unscaled"] = statistics.median(s.seconds for s in setup)
            context["probe_chunks"] = len(probe.cpu_s)
            context["probe_chunk_cpu_s"] = statistics.median(probe.cpu_s)
            context["failed_frac"] = tally.failed / tally.attempted
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"context": context}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
