"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 verifbench/selftest.py
"""

import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import unittest

import run

run._load_program()

import workloads  # noqa: E402
from layers import PER_LAYER_METRICS  # noqa: E402

ROOT = os.path.dirname(run.HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def input_bytes(workload, rounds: int = 2) -> bytes:
    """Serialise the labels and freshly built inputs of the first rounds."""
    chunks = []
    for index in range(rounds):
        for request in workload.round(index):
            chunks.append(request.label.encode())
            chunks.append(pickle.dumps(request.build()))
    return b"\0".join(chunks)


class Flipped:
    """A reference that expects the opposite of the wrapped one."""

    def __init__(self, reference):
        self.reference = reference

    def check(self, task_of, outcome) -> bool:
        return not self.reference.check(task_of, outcome)


class FixedRound:
    """A one-round workload over the given requests."""

    def __init__(self, requests, clears_cache=True):
        self.requests = requests
        self.clears_cache = clears_cache

    def round(self, index):
        return self.requests


def _cheap_requests():
    """A few requests of each reference kind: analytic, computed and constructed."""
    casestudy = [r for r in workloads.CaseStudy(5).round(0) if r.label in ("errcorr3", "qwalk8-invalid-inv", "grover3-pre-p+d")]
    fuzz = workloads.FuzzSource(5).round(0)
    # A failing loop invariant, a verified loop and a loop-free draw.
    fuzz = [r for r in fuzz if r.label in ("fuzz-2023-0", "fuzz-2023-2", "fuzz-2023-5")]
    refinement = [r for r in workloads.Refinement(5).round(0) if r.label.startswith(("errcorr3", "qwalk8"))]
    return casestudy + fuzz + refinement


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(input_bytes(cls(7)), input_bytes(cls(7)))
                self.assertNotEqual(input_bytes(cls(7)), input_bytes(cls(8)))

    def test_edit_stream_requests_edit_one_gate_of_the_previous_round(self):
        stream = workloads.EditStream(3)
        for lineage in stream.lineages:
            before = lineage.request(1).build()
            after = lineage.request(2).build()
            self.assertNotEqual(pickle.dumps(before), pickle.dumps(after), lineage.label)
            self.assertEqual(lineage.edits_until(2)[:1], lineage.edits_until(1))


class ReferenceTest(unittest.TestCase):
    def test_references_accept_the_program_at_this_commit(self):
        result = run.measure(FixedRound(_cheap_requests()), rounds=1)
        self.assertEqual(result.failures, [])

    def test_flipped_reference_counts_as_failed(self):
        requests = _cheap_requests()
        for request in requests:
            request.reference = Flipped(request.reference)
        with contextlib.redirect_stderr(io.StringIO()):
            result = run.measure(FixedRound(requests), rounds=1)
        failed_fraction = len(result.failures) / len(result.latencies)
        self.assertGreater(failed_fraction, 0)
        self.assertEqual(len(result.failures), len(requests))


class OutputTest(unittest.TestCase):
    def _run(self, trace: int) -> list:
        command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "casestudy",
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
        return completed.stdout.strip().splitlines()

    def test_printed_metrics_match_benchmark_json(self):
        with open(BENCHMARK) as handle:
            declared = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                lines = self._run(trace)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(result["failed"], 0)
                expected = {m["name"]: m["unit"] for m in declared[key]}
                printed = {name: value["unit"] for name, value in result["metrics"].items()}
                self.assertEqual(printed, expected)
                rows = {line.split()[0]: line.split()[-1] for line in lines[1:1 + len(expected)]}
                self.assertEqual(rows, expected)
        self.assertEqual([name for name, _ in PER_LAYER_METRICS], [m["name"] for m in declared["per_layer"]])
        self.assertEqual([name for name, _ in run.END_TO_END_METRICS], [m["name"] for m in declared["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
