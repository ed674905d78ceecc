"""Experiment E12 — unified scaling sweep: size × backend (× jobs).

This is the scaling harness of the semantics engines: it times the
denotational semantics of the three scalable program families

* ``grover``  — ``grover_program(n, layout="gates")``: loop-free, gate-local
  circuit with global oracle/reflection statements;
* ``qwalk``   — ``qwalk_program(2^m)``: a while loop whose nondeterministic
  body is two layers of single-qubit gates (the hypercube walk family);
* ``errcorr`` — ``errcorr_program(n)``: nondeterministic noise plus nested
  measurement conditionals, every statement one- or two-qubit local;

under both ``backend ∈ {kraus, transfer}``, checks that the backends agree
with the reference semantics (``kraus``) to the library tolerance, and writes
the whole trajectory to ``BENCH_scaling.json``.  The timings are recorded,
not gated: which backend wins depends on the workload (see the README
"Scaling guide").

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_scaling.py --jobs 4  # + jobs sweep

With ``--jobs N > 1`` an additional sweep dimension is recorded: the
loop-bearing headline workloads are re-timed with the parallel execution
layer (``parallelism=N``, see :mod:`repro.parallel`) next to their serial
baseline, every parallel cell is checked for exact agreement with the serial
result, and ``<family><size>_<backend>_jobsN_speedup`` claims are added.  The
``jobs=N`` wall-clock claim is asserted (≥ :data:`MIN_JOBS_SPEEDUP`) only on
hosts that actually expose ≥ 2 usable cores — on single-core runners the
measurement is recorded with the host's core count so the number stays
honest.

The ``--smoke`` mode restricts the sweep to ≤ 3-qubit instances and a single
timing repetition so CI can publish a per-PR trajectory artifact without
paying the full measurement cost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache import RESULT_CACHE, clear_result_cache
from repro.linalg.constants import ATOL
from repro.programs.errcorr import errcorr_program, errcorr_register
from repro.programs.grover import grover_program, grover_register
from repro.programs.qwalk import qwalk_program, qwalk_register
from repro.semantics.denotational import BACKENDS, DenotationOptions, denotation
from repro.superop.compare import set_equal
from repro.telemetry import traced_regions

#: Required wall-clock speedup of ``jobs=N`` over ``jobs=1`` on the headline
#: loop-bearing workloads (asserted in full mode on multi-core hosts only;
#: relax via the environment on noisy shared runners).
MIN_JOBS_SPEEDUP = float(os.environ.get("SCALING_BENCH_MIN_JOBS_SPEEDUP", "1.7"))

#: Sizes swept per workload: the family parameter per entry (register widths
#: reach 4 qubits).  Full *denotation sets* of the 5-qubit repetition code are
#: combinatorially heavy in every representation (6 noise branches × nested
#: conditionals); 5-qubit instances are exercised through the prover instead
#: (``tests/test_program_families.py``), which needs only wp transformers.
FULL_SIZES: Dict[str, List[int]] = {
    "grover": [2, 3, 4],
    "qwalk": [4, 8, 16],
    "errcorr": [3, 4],
}

SMOKE_SIZES: Dict[str, List[int]] = {
    "grover": [2, 3],
    "qwalk": [4, 8],
    "errcorr": [3],
}

#: Cells of the ``--jobs`` sweep: loop-bearing workloads whose scheduler
#: exploration dominates the wall clock (grover's gate circuit is loop-free
#: and denotes a singleton set — nothing to shard — so it is excluded).
JOBS_CELLS_FULL: List[Tuple[str, int, str]] = [
    ("qwalk", 16, "transfer"),
    ("errcorr", 4, "kraus"),
]

JOBS_CELLS_SMOKE: List[Tuple[str, int, str]] = [
    ("qwalk", 8, "transfer"),
]


def usable_cores() -> int:
    """Return the number of CPU cores this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def build_workload(family: str, size: int) -> Tuple[object, object]:
    """Return ``(program, register)`` for one family member."""
    if family == "grover":
        return grover_program(size, layout="gates"), grover_register(size)
    if family == "qwalk":
        return qwalk_program(size), qwalk_register(size)
    if family == "errcorr":
        return errcorr_program(size), errcorr_register(size)
    raise ValueError(f"unknown workload family {family!r}")


def best_of(function: Callable[[], object], repeats: int) -> float:
    """Return the best wall-clock time of ``repeats`` runs of ``function``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def run_sweep(smoke: bool, repeats: int, jobs: int = 1) -> Dict:
    """Run the size × backend (× jobs) sweep and return the JSON payload."""
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    results: List[Dict] = []
    for family, family_sizes in sizes.items():
        for size in family_sizes:
            program, register = build_workload(family, size)
            reference = denotation(program, register, DenotationOptions())
            for backend in BACKENDS:
                options = DenotationOptions(backend=backend)
                maps = denotation(program, register, options)
                agrees = set_equal(reference, maps, atol=ATOL)
                seconds = best_of(lambda: denotation(program, register, options), repeats)
                # One extra traced run per cell: the timed runs above stay
                # untraced, the breakdown attributes wall time per region
                # (denotation / loop / compare / ...) for this cell.
                breakdown = traced_regions(lambda: denotation(program, register, options))
                entry = {
                    "workload": family,
                    "size": size,
                    "num_qubits": register.num_qubits,
                    "backend": backend,
                    "jobs": 1,
                    "seconds": round(seconds, 6),
                    "agrees_with_reference": bool(agrees),
                    "breakdown": breakdown,
                }
                results.append(entry)
                print(
                    f"{family:8s} size={size:<3d} n={register.num_qubits} "
                    f"{backend:8s} {seconds*1000:9.2f} ms "
                    f"{'ok' if agrees else 'MISMATCH'}"
                )
    if jobs > 1:
        results.extend(run_jobs_sweep(smoke, repeats, jobs))
    return {
        "benchmark": "bench_scaling",
        "experiment": "E12",
        "smoke": smoke,
        "repeats": repeats,
        "jobs": jobs,
        "cpu_count": usable_cores(),
        "min_jobs_speedup": MIN_JOBS_SPEEDUP,
        "results": results,
        "claims": jobs_claims(results, jobs),
    }


def run_jobs_sweep(smoke: bool, repeats: int, jobs: int) -> List[Dict]:
    """Time the loop-bearing headline cells serially and with ``jobs`` workers.

    Each parallel cell is checked for agreement with its own serial run — the
    parallel layer guarantees *identical* result ordering, so ``set_equal``
    here is strictly weaker than what ``tests/test_parallel.py`` asserts.
    """
    cells = JOBS_CELLS_SMOKE if smoke else JOBS_CELLS_FULL
    entries: List[Dict] = []
    for family, size, backend in cells:
        program, register = build_workload(family, size)
        serial_maps = denotation(program, register, DenotationOptions(backend=backend))
        for job_count in sorted({1, jobs}):
            options = DenotationOptions(backend=backend, parallelism=job_count)
            maps = denotation(program, register, options)
            agrees = set_equal(serial_maps, maps, atol=ATOL)
            seconds = best_of(lambda: denotation(program, register, options), repeats)
            entries.append(
                {
                    "workload": family,
                    "size": size,
                    "num_qubits": register.num_qubits,
                    "backend": backend,
                    "jobs": job_count,
                    "seconds": round(seconds, 6),
                    "agrees_with_reference": bool(agrees),
                    "breakdown": traced_regions(
                        lambda: denotation(program, register, options)
                    ),
                }
            )
            print(
                f"{family:8s} size={size:<3d} n={register.num_qubits} "
                f"{backend:8s} jobs={job_count:<2d} "
                f"{seconds*1000:9.2f} ms {'ok' if agrees else 'MISMATCH'}"
            )
    return entries


def jobs_claims(results: List[Dict], jobs: int) -> Dict[str, float]:
    """Compute the ``jobs=N`` over ``jobs=1`` speedups of the jobs-sweep cells."""
    if jobs <= 1:
        return {}
    indexed = {
        (r["workload"], r["size"], r["backend"], r.get("jobs", 1)): r["seconds"]
        for r in results
    }
    claims: Dict[str, float] = {}
    for family, size, backend in JOBS_CELLS_FULL + JOBS_CELLS_SMOKE:
        serial = indexed.get((family, size, backend, 1))
        parallel = indexed.get((family, size, backend, jobs))
        if serial is None or parallel is None:
            continue
        key = f"{family}{size}_{backend}_jobs{jobs}_speedup"
        claims[key] = round(serial / max(parallel, 1e-12), 2)
    return claims


def check_payload(payload: Dict) -> List[str]:
    """Return a list of failed-assertion messages (empty when all hold)."""
    failures = []
    for entry in payload["results"]:
        if not entry["agrees_with_reference"]:
            failures.append(
                f"{entry['workload']} size={entry['size']} "
                f"{entry['backend']} disagrees with the reference semantics"
            )
    jobs = payload.get("jobs", 1)
    if not payload["smoke"] and jobs > 1:
        # The jobs=N claim is a *wall-clock* claim about multiprocessing; it
        # is only falsifiable on hosts with at least two usable cores.  On a
        # single-core runner the sweep still records the honest (≈1x, pool
        # overhead included) measurement plus the core count, and the
        # assertion is skipped rather than faked.
        speedups = [
            value for key, value in payload["claims"].items() if f"_jobs{jobs}_" in key
        ]
        if payload.get("cpu_count", 1) >= 2:
            if not speedups:
                failures.append("jobs sweep requested but no jobs speedup was measured")
            elif max(speedups) < MIN_JOBS_SPEEDUP:
                failures.append(
                    f"expected ≥{MIN_JOBS_SPEEDUP:.1f}x speedup at jobs={jobs} vs jobs=1 "
                    f"on a loop-bearing 4-qubit workload, measured {speedups}"
                )
        else:
            print(
                f"note: jobs={jobs} speedup assertion skipped "
                f"(host exposes {payload.get('cpu_count', 1)} usable core)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Unified scaling benchmark: size x backend sweep."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized sweep (<= 3-qubit instances, one timing repetition)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repetitions per cell"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="add a serial-vs-N-workers sweep over the loop-bearing headline "
        "workloads (default: 1 = no jobs sweep)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_scaling.json"),
        help="output JSON path (default: BENCH_scaling.json at the repo root)",
    )
    arguments = parser.parse_args(argv)
    repeats = arguments.repeats if arguments.repeats is not None else (1 if arguments.smoke else 3)

    # Time the raw engines: with the content-addressed result cache enabled,
    # repeated timing runs would measure cache lookups instead (the cache's
    # payoff has its own harness, benchmarks/bench_incremental.py).
    RESULT_CACHE.configure(enabled=False)
    clear_result_cache()
    try:
        payload = run_sweep(arguments.smoke, repeats, jobs=arguments.jobs)
    finally:
        RESULT_CACHE.configure(enabled=True)
        clear_result_cache()
    failures = check_payload(payload)
    payload["passed"] = not failures

    out_path = Path(arguments.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key, value in sorted(payload["claims"].items()):
        print(f"claim {key}: {value}x")
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
