"""Smoke test of the unified scaling benchmark harness.

Runs ``benchmarks/bench_scaling.py`` in ``--smoke`` mode against a temporary
output path: the sweep must succeed, every denotation must be trace
non-increasing, and the emitted JSON must follow the ``BENCH_scaling.json``
schema documented in the README.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_scaling  # noqa: E402  (needs the benchmarks/ path above)


def test_smoke_sweep_writes_schema_conformant_json(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    exit_code = bench_scaling.main(["--smoke", "--out", str(out)])
    assert exit_code == 0

    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "bench_scaling"
    assert payload["smoke"] is True
    assert payload["passed"] is True
    for removed in ("claims", "jobs", "cpu_count", "min_jobs_speedup"):
        assert removed not in payload

    results = payload["results"]
    expected_cells = sum(len(sizes) for sizes in bench_scaling.SMOKE_SIZES.values())
    assert len(results) == expected_cells
    for entry in results:
        assert entry["trace_nonincreasing"] is True
        assert entry["maps"] >= 1
        for removed in ("backend", "lifting", "jobs", "agrees_with_reference"):
            assert removed not in entry
        assert entry["seconds"] >= 0.0
        assert entry["num_qubits"] >= 2
