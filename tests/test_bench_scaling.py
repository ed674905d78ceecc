"""Smoke test of the unified scaling benchmark harness.

Runs ``benchmarks/bench_scaling.py`` in ``--smoke`` mode against a temporary
output path: the sweep must succeed, every backend must
agree with the reference semantics, and the emitted JSON must follow the
``BENCH_scaling.json`` schema documented in the README.
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
    assert isinstance(payload["claims"], dict)

    results = payload["results"]
    expected_cells = sum(len(sizes) for sizes in bench_scaling.SMOKE_SIZES.values()) * 2
    assert len(results) == expected_cells
    assert payload["jobs"] == 1
    assert payload["cpu_count"] >= 1
    for entry in results:
        assert entry["agrees_with_reference"] is True
        assert entry["backend"] in ("kraus", "transfer")
        assert "lifting" not in entry
        assert entry["jobs"] == 1
        assert entry["seconds"] >= 0.0
        assert entry["num_qubits"] >= 2


def test_smoke_sweep_with_jobs_adds_parallel_cells(tmp_path):
    out = tmp_path / "BENCH_scaling_parallel.json"
    exit_code = bench_scaling.main(["--smoke", "--jobs", "2", "--out", str(out)])
    assert exit_code == 0

    payload = json.loads(out.read_text())
    assert payload["jobs"] == 2
    base_cells = sum(len(sizes) for sizes in bench_scaling.SMOKE_SIZES.values()) * 2
    jobs_entries = [e for e in payload["results"] if e["jobs"] != 1]
    serial_companions = payload["results"][base_cells:]
    # One serial + one jobs=2 row per smoke jobs cell, all agreeing.
    assert len(jobs_entries) == len(bench_scaling.JOBS_CELLS_SMOKE)
    assert len(serial_companions) == 2 * len(bench_scaling.JOBS_CELLS_SMOKE)
    assert all(e["agrees_with_reference"] for e in payload["results"])
    assert any(key.endswith("_jobs2_speedup") for key in payload["claims"])


def test_jobs_claims_indexing():
    results = [
        {"workload": "qwalk", "size": 16, "backend": "transfer", "jobs": 1, "seconds": 2.0},
        {"workload": "qwalk", "size": 16, "backend": "transfer", "jobs": 4, "seconds": 1.0},
    ]
    claims = bench_scaling.jobs_claims(results, 4)
    assert claims == {"qwalk16_transfer_jobs4_speedup": 2.0}
    assert bench_scaling.jobs_claims(results, 1) == {}
