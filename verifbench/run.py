"""Verifier benchmark: one closed-loop client per workload, verdicts checked against references.

Run from the root of a checkout::

    python3 verifbench/run.py --workload casestudy --seed 1 --seconds 10 --trace 0

One client submits a request, waits for the verdict, checks it against a
reference (untimed) and submits the next.  Every request uses the library
defaults (``ProverOptions()`` / ``DenotationOptions()``).  A run measures whole
rounds (see ``workloads.py``), at least two, until the timed requests add up
to ``--seconds``.

Timings are reported at a reference host speed.  After every request, while
the verifier is idle, the client times a fixed kernel of interpreter work and
small dense linear algebra.  Each request's latency is scaled by the kernel's
nominal time over its median time across the requests around it.  The raw
timings are printed too.  The shared host this was built on drifts in speed
by ±25% over minutes; the scaling keeps that drift out of the comparison
between runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the rounds once
untraced and once with the per-layer spans of ``layers.py`` and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failed fraction.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS/OpenMP pools are pinned to one thread before numpy loads.  On a 2-vCPU
# Xeon VM (OpenBLAS 0.3.31) with one competing CPU-bound process, default
# threading took grover6 verification from 43-54 ms to 95-223 ms and qwalk64
# from 16-19 ms to 46-218 ms (see README.md).
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import List, Optional  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.join(os.path.dirname(HERE), "src")

#: Set-ups per run (this process plus fresh child processes); setup_s is their median.
SETUP_REPEATS = 3

#: The host-speed kernel's median time on the reference host, a 2-vCPU Xeon VM.
NOMINAL_KERNEL_SECONDS = 0.00075

#: Requests on each side whose kernel samples set a request's host speed.
SPEED_WINDOW = 10

_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((32, 64)).view(complex)
_KERNEL_MATRIX = _KERNEL_MATRIX @ _KERNEL_MATRIX.conj().T

END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def kernel_seconds() -> float:
    """Time one pass of the host-speed kernel: a bytecode loop and four 32x32 complex eigensolves."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    for _ in range(4):
        np.linalg.eigvalsh(_KERNEL_MATRIX @ _KERNEL_MATRIX)
    return time.perf_counter() - start


def host_scale(samples: List[float]) -> float:
    """Factor turning this host's timings into timings at the reference speed."""
    return NOMINAL_KERNEL_SECONDS / statistics.median(samples)


def _load_program():
    """Import the verifier from the checkout's ``src`` and the benchmark's own modules."""
    if not os.path.isdir(os.path.join(SOURCE_ROOT, "repro")):
        raise SystemExit(f"error: the verifier sources are missing ({SOURCE_ROOT}/repro)")
    sys.path[:0] = [SOURCE_ROOT, HERE]
    import repro  # noqa: F401
    import workloads

    return workloads


@dataclass
class Measurement:
    """Latencies, failures and host-speed samples of the requests of whole rounds."""

    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    kernel: List[float] = field(default_factory=list)
    rounds: int = 0

    @property
    def busy(self) -> float:
        """Total time of the timed requests, in seconds at this host's speed."""
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        """Factor to the reference host speed over this measurement."""
        return host_scale(self.kernel)

    def at_reference_speed(self) -> List[float]:
        """Each latency scaled by the host speed over the requests around it."""
        return [
            latency * host_scale(self.kernel[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
            for i, latency in enumerate(self.latencies)
        ]


def issue(request, clear_cache: bool, trace=None):
    """Issue one request; return ``(seconds, outcome, reference verdict)``."""
    from repro import clear_result_cache
    from reference import Outcome

    if clear_cache:
        clear_result_cache()
    inputs = request.build()
    if trace is not None:
        trace.begin()
    start = time.perf_counter()
    try:
        outcome = Outcome(value=request.execute(inputs))
    except Exception as error:  # a raised error is an outcome the reference judges
        outcome = Outcome(error=error)
    elapsed = time.perf_counter() - start
    if trace is not None:
        trace.end(outcome)
    try:
        ok = request.reference.check(lambda: request.task(inputs), outcome)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        detail = f"{type(outcome.error).__name__}: {outcome.error}" if outcome.error else "wrong verdict"
        print(f"FAILED {request.label}: {detail}", file=sys.stderr)
    return elapsed, outcome, ok


#: Fewest rounds a run measures, so that fuzz-source times its heaviest draw twice.
MIN_ROUNDS = 2


def measure(workload, seconds: Optional[float] = None, rounds: Optional[int] = None, trace=None) -> Measurement:
    """Issue whole rounds until the timed requests add up to ``seconds`` (or for ``rounds`` rounds)."""
    result = Measurement()
    while True:
        for request in workload.round(result.rounds):
            elapsed, _, ok = issue(request, workload.clears_cache, trace)
            result.latencies.append(elapsed)
            result.kernel.append(kernel_seconds())
            if not ok:
                result.failures.append(request.label)
        result.rounds += 1
        if rounds is not None and result.rounds >= rounds:
            return result
        if rounds is None and result.busy >= seconds and result.rounds >= MIN_ROUNDS:
            return result


def set_up(workloads, name: str, seed: int):
    """Generate the workload's inputs and warm up; leaves a cold cache and zeroed counters."""
    from repro import METRICS, clear_result_cache

    workload = workloads.WORKLOADS[name](seed)
    for request in workload.warmup():
        issue(request, clear_cache=True)
    clear_result_cache()
    METRICS.reset()
    return workload


def child_setup_seconds(args) -> float:
    """Run the set-up in a fresh process and return its ``setup_s`` at the reference speed."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(latencies: List[float], setup_s: float) -> dict:
    """The user-visible metrics of an untraced run."""
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * deciles[4],
        "latency_p90_ms": 1000.0 * deciles[8],
        "throughput_rps": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    workloads = _load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = set_up(workloads, args.workload, args.seed)
    raw_setup_s = time.perf_counter() - _START
    setup_s = raw_setup_s * host_scale([kernel_seconds() for _ in range(21)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from layers import PER_LAYER_METRICS, LayerTrace

    if args.trace == 0:
        run = measure(workload, seconds=args.seconds)
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        values = end_to_end(run.at_reference_speed(), statistics.median(setups))
        units = dict(END_TO_END_METRICS)
        runs = [run]
        raw = end_to_end(run.latencies, raw_setup_s)
        raw_line = " ".join(f"{name}={raw[name]:.6g}" for name in ("setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_rps"))
        host = f"kernel median {1000 * statistics.median(run.kernel):.4g} ms, scale {run.scale:.4g}"
    else:
        # The rounds of an untraced run, then the same rounds again from a cold
        # cache with the spans on; the ratio of the two is the tracing overhead.
        untraced = measure(workload, seconds=args.seconds)
        from repro import METRICS, clear_result_cache

        clear_result_cache()
        METRICS.reset()
        trace = LayerTrace()
        trace.install()
        try:
            traced = measure(workload, rounds=untraced.rounds, trace=trace)
        finally:
            trace.uninstall()
        values = trace.metrics(
            traced.scale, sum(traced.at_reference_speed()), sum(untraced.at_reference_speed())
        )
        units = dict(PER_LAYER_METRICS)
        runs = [untraced, traced]
        raw_line = f"traced_s={traced.busy:.6g} untraced_s={untraced.busy:.6g}"
        host = f"scale untraced {untraced.scale:.4g}, traced {traced.scale:.4g}"

    attempted = sum(len(run.latencies) for run in runs)
    failed = sum(len(run.failures) for run in runs)
    blas = " ".join(f"{var}={value}" for var, value in BLAS_THREADS.items())
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={runs[-1].rounds} "
        f"requests={attempted} blas_threads: {blas}"
    )
    for name, unit in units.items():
        print(f"{name:30s} {values[name]:14.6g} {unit}")
    print(f"host speed: {host}; raw timings on this host: {raw_line}")
    print(f"attempted={attempted} failed={failed} failed_fraction={failed / attempted:.6g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
