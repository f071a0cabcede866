"""Fast tests of the benchmark itself, on tiny groups and canned children.

    python3 -m unittest discover -s perfbench -v

They stay out of the library's pytest run (its testpaths is tests/).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = run.declared_metrics()
TINY_COMMANDS = [
    ["beauville", "search", "--group", "L2:7", "--format", "json", "--seed", "3"],
    ["genclasses", "search", "--group", "A5", "--format", "json"],
    ["chartab", "--group", "A5", "--format", "json"],
]
EXACT_COUNTS = [
    "permgroup.perm_mul_count",
    "permgroup.perm_inverse_count",
    "permgroup.class_of_count",
    "permgroup.subgroup_order_count",
    "chartab.class_matrix_count",
    "structconst.formula_count",
    "cyclotomic.mul_count",
    "beauville.is_generating_pair_count",
    "beauville.generating_ratio",
    "beauville.pair_tests",
    "beauville.types_examined",
]



def UNSCALED(sample: run.Sample) -> float:
    return sample.seconds


def traced_pair(argv: list[str]) -> dict:
    runner = run.Runner(time.perf_counter() + 60)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        plain = runner.cli(argv)
        traced_child = runner.spawn([str(run.HERE / "trace_cli.py"), str(trace_path), *argv])
        assert plain.returncode == traced_child.returncode == 0
        assert plain.stdout == traced_child.stdout, "tracing changed stdout"
        return run.pair_metrics(plain, traced_child, json.loads(trace_path.read_text()))


class FakeRunner:
    """Canned children for beauville-l2_25; every other search child has a corrupted stdout."""

    def __init__(self):
        self.searches = 0

    def cli(self, argv: list[str]) -> run.Sample:
        if argv[0] == "group":
            return run.Sample(0.5, 0.5, 18.0, 0, b'{"order":7800}\n')
        if argv[:2] == ["beauville", "verify"]:
            return run.Sample(0.4, 0.4, 21.0, 0, b'{"group":"L2:25","reason":"ok","verified":true}\n')
        self.searches += 1
        payload = b'{"group":"L2:25","seed":%d}\n' % self.searches
        Path(argv[argv.index("--out") + 1]).write_bytes(payload)
        if self.searches % 2 == 0:
            return run.Sample(100.0, 100.0, 99.0, 0, payload.replace(b"L2:25", b"L2:52"))
        return run.Sample(3.0, 3.0, 60.0, 0, payload)


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_are_the_declared_ones(self):
        tally = run.Tally(attempted=4, failed=1)
        samples = [run.Sample(2.0, 2.0, 50.0, 0, b"")]
        setup = [run.Sample(0.2, 0.2, 18.0, 0, b""), run.Sample(0.3, 0.3, 18.0, 0, b"")]
        values = run.summarize_end_to_end(setup, samples, tally, UNSCALED)
        self.assertEqual(set(values), {m["name"] for m in SPEC["end_to_end"]})
        for name, m in run.format_metrics(values, SPEC["end_to_end"]).items():
            self.assertIsInstance(m["value"], float, name)
            self.assertTrue(m["unit"], name)

    def test_per_layer_metrics_are_the_declared_ones(self):
        values = traced_pair(TINY_COMMANDS[0])
        self.assertEqual(set(values), {m["name"] for m in SPEC["per_layer"]})
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, m in run.format_metrics(values, SPEC["per_layer"]).items():
            self.assertEqual(m["unit"], units[name])
        # every layer this command passes through is seen
        for name in ("permgroup.perm_mul_count", "structconst.formula_count",
                     "beauville.pair_tests", "beauville.types_examined", "cli.run_s"):
            self.assertGreater(values[name], 0, name)

    def test_benchmark_json_has_unique_names_and_bounded_metrics(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for argv in TINY_COMMANDS:
            with self.subTest(argv=" ".join(argv)):
                first, second = traced_pair(argv), traced_pair(argv)
                self.assertEqual({k: first[k] for k in EXACT_COUNTS},
                                 {k: second[k] for k in EXACT_COUNTS})
                self.assertGreater(first["permgroup.perm_mul_count"], 0)


class Correctness(unittest.TestCase):
    def test_corrupted_stdout_is_a_failure_not_a_timing(self):
        wl = run.WORKLOADS["beauville-l2_25"]
        tally = run.Tally()
        with tempfile.TemporaryDirectory() as tmp:
            setup, samples = run.end_to_end(wl, 0, 0.01, FakeRunner(), Path(tmp), tally)
        self.assertGreaterEqual(tally.failed, 1)
        self.assertEqual(tally.attempted, run.SETUP_REPEATS + len(samples) + tally.failed)
        values = run.summarize_end_to_end(setup, samples, tally, UNSCALED)
        self.assertEqual(values["wall_s"], 3.0)
        self.assertEqual(values["peak_rss_mb"], 60.0)
        self.assertLess(values["pass_frac"], 1.0)

    def test_digest_mismatch_is_a_failure(self):
        body = json.dumps({"orthogonality_verified": True, "degrees": [1]}).encode()
        sample = run.Sample(6.0, 6.0, 54.0, 0, body)
        error = run.check_output(run.WORKLOADS["chartab-m12"], sample, Path("unused"), None)
        self.assertEqual(error, "stdout differs from the recorded digest")

    def test_nonzero_exit_is_a_failure(self):
        sample = run.Sample(1.0, 1.0, 20.0, 3, b"")
        error = run.check_output(run.WORKLOADS["genclasses-m11"], sample, Path("unused"), None)
        self.assertEqual(error, "exit code 3")

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        pct, value = run.tail_percentile([float(i) for i in range(20)])
        self.assertEqual((pct, value), (50.0, 9.0))


class HostSpeedProbe(unittest.TestCase):
    def test_rescale_uses_the_chunks_during_the_child(self):
        probe = run.Probe(Path("unused"), 0)
        probe.ends = [float(t) for t in range(100)]
        probe.cpu_s = [run.PROBE_REF_S] * 50 + [2 * run.PROBE_REF_S] * 50
        fast = run.Sample(10.0, 10.0, 1.0, 0, b"", start=20.0, end=30.0)
        slow = run.Sample(10.0, 10.0, 1.0, 0, b"", start=70.0, end=80.0)
        self.assertAlmostEqual(probe.rescale(fast), 10.0)
        self.assertAlmostEqual(probe.rescale(slow), 5.0)
        # a child shorter than PROBE_MIN_CHUNKS chunks borrows its neighbours'
        short = run.Sample(0.5, 0.5, 1.0, 0, b"", start=49.2, end=49.7)
        self.assertAlmostEqual(probe.rescale(short), 0.5 / 1.5)

    def test_probe_starts_records_and_stops(self):
        with tempfile.TemporaryDirectory() as tmp:
            cpu = max(run.os.sched_getaffinity(0))
            with run.Probe(Path(tmp) / "probe.json", cpu) as probe:
                time.sleep(0.3)
            self.assertIsNotNone(probe.proc.returncode)
        self.assertGreater(len(probe.cpu_s), 0)
        self.assertEqual(probe.ends, sorted(probe.ends))


if __name__ == "__main__":
    unittest.main()
