"""Tests of the opt-in multiprocessing execution layer (ISSUE 8).

Covers the prerequisite refactors — the pure ``RandomScheduler``, the atomic
``ResultCache.get_or_set``, pickle round-trips for every shipped value type —
the executor's serial-fallback rules, the worker-state merge protocol
(cache deltas, metric sums, adopted span subtrees), and the acceptance sweep:
serial and parallel runs of every case-study formula must produce *identical*
results in *identical* order across backends and job counts.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.cache import MISS, RESULT_CACHE, ResultCache, cache_stats, clear_result_cache
from repro.hashing import options_signature
from repro.language.ast import Abort, If, Init, Measurement, NDet, Seq, Skip, Unitary, While
from repro.linalg.constants import ATOL
from repro.logic.prover import Prover, ProverOptions, verify_formula
from repro.parallel import (
    MIN_WORK_DIMENSION,
    effective_jobs,
    in_worker,
    parallel_map,
    shard_evenly,
)
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.programs.deutsch import deutsch_formula
from repro.programs.errcorr import errcorr_formula, errcorr_program, errcorr_register
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_formula, qwalk_invariant, qwalk_program, qwalk_register
from repro.programs.rus import rus_formula, rus_invariant
from repro.registers import QubitRegister
from repro.semantics.denotational import BACKENDS, DenotationOptions, denotation
from repro.semantics.schedulers import (
    ConstantScheduler,
    CyclicScheduler,
    FunctionScheduler,
    RandomScheduler,
    sample_schedulers,
)
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.superop.kraus import SuperOperator
from repro.superop.transfer import TransferSet, TransferSuperOperator
from repro.telemetry import configure_tracing, get_tracer, metrics_snapshot
from repro.telemetry.metrics import METRICS, MetricsRegistry


# ---------------------------------------------------------------------------
# Satellite 1 — RandomScheduler is a pure function of (seed, iteration, num_choices)
# ---------------------------------------------------------------------------


class TestRandomSchedulerPurity:
    def test_requery_with_different_num_choices_matches_fresh_instance(self):
        # Regression: the historical memo keyed choices by iteration only, so
        # querying with num_choices=3 then 2 silently rescaled the stale draw
        # (index % 2) instead of drawing as a fresh instance would.
        reused = RandomScheduler(seed=11)
        for iteration in range(1, 20):
            reused.select(iteration, 3)
        fresh = RandomScheduler(seed=11)
        for iteration in range(1, 20):
            assert reused.select(iteration, 2) == fresh.select(iteration, 2)

    def test_query_order_is_irrelevant(self):
        forward = RandomScheduler(seed=3)
        backward = RandomScheduler(seed=3)
        a = [forward.select(i, 4) for i in range(1, 30)]
        b = [backward.select(i, 4) for i in reversed(range(1, 30))]
        assert a == list(reversed(b))

    def test_reproducible_and_in_range(self):
        scheduler = RandomScheduler(seed=5)
        draws = [scheduler.select(i, 3) for i in range(1, 50)]
        assert draws == [RandomScheduler(seed=5).select(i, 3) for i in range(1, 50)]
        assert all(0 <= d < 3 for d in draws)
        assert len(set(draws)) > 1  # not degenerate

    def test_distinct_seeds_distinct_sequences(self):
        a = [RandomScheduler(seed=0).select(i, 4) for i in range(1, 40)]
        b = [RandomScheduler(seed=1).select(i, 4) for i in range(1, 40)]
        assert a != b

    def test_rejects_empty_choice_set(self):
        from repro.exceptions import SchedulerError

        with pytest.raises(SchedulerError):
            RandomScheduler(seed=0).select(1, 0)


# ---------------------------------------------------------------------------
# Satellite 2 — atomic ResultCache.get_or_set
# ---------------------------------------------------------------------------


class TestGetOrSet:
    def test_hit_and_miss_counters_bump_exactly_once(self):
        cache = ResultCache(maxsize=8)
        assert cache.get_or_set("r", "k", 1) == 1  # miss, inserts
        assert cache.get_or_set("r", "k", 2) == 1  # hit, keeps first value
        stats = cache.stats()["regions"]["r"]
        assert stats == {"hits": 1, "misses": 1, "evictions": 0}

    def test_uncacheable_key_returns_default_untouched(self):
        cache = ResultCache(maxsize=8)
        assert cache.get_or_set("r", None, "d") == "d"
        assert cache.stats()["regions"] == {}

    def test_concurrent_racers_agree_on_one_value(self):
        cache = ResultCache(maxsize=64)
        barrier = threading.Barrier(8)
        winners = []

        def race(token):
            barrier.wait()
            winners.append(cache.get_or_set("race", "key", token))

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one insert won; every thread observed the winner's value,
        # and hit + miss counts account for all eight calls with one miss.
        assert len(set(winners)) == 1
        stats = cache.stats()["regions"]["race"]
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_eviction_still_bounded(self):
        cache = ResultCache(maxsize=2)
        for index in range(5):
            cache.get_or_set("r", f"k{index}", index)
        assert cache.stats()["size"] == 2
        assert cache.stats()["regions"]["r"]["evictions"] == 3

    def test_recording_captures_inserts(self):
        cache = ResultCache(maxsize=8)
        cache.begin_recording()
        cache.get_or_set("r", "a", 1)
        cache.get_or_set("r", "a", 2)  # hit: not recorded
        cache.store("r", "b", 3)
        assert cache.take_recording() == [("r", "a", 1), ("r", "b", 3)]
        cache.store("r", "c", 4)  # after take: not recorded
        assert cache.take_recording() == []


# ---------------------------------------------------------------------------
# Satellite 3a — pickle round-trips for everything the workers ship
# ---------------------------------------------------------------------------


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def _measurement():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return Measurement("m", p0, np.eye(2, dtype=complex) - p0)


def _ast_nodes():
    measurement = _measurement()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    skip, abort = Skip(), Abort()
    init = Init(("q",))
    unitary = Unitary(("q",), "H", hadamard)
    seq = Seq((init, unitary))
    ndet = NDet((skip, unitary))
    conditional = If(measurement, ("q",), unitary, skip)
    loop = While(measurement, ("q",), seq)
    return [skip, abort, init, unitary, seq, ndet, conditional, loop]


@pytest.mark.parametrize("node", _ast_nodes(), ids=lambda n: type(n).__name__)
def test_ast_nodes_pickle_roundtrip(node):
    assert _roundtrip(node) == node


def test_measurement_pickle_roundtrip():
    assert _roundtrip(_measurement()) == _measurement()


def test_register_pickle_roundtrip():
    register = QubitRegister(("a", "b", "c"))
    clone = _roundtrip(register)
    assert clone.names == register.names
    assert clone.dimension == register.dimension


@pytest.mark.parametrize(
    "scheduler",
    [
        ConstantScheduler(1),
        CyclicScheduler([0, 1, 1]),
        RandomScheduler(seed=9),
        FunctionScheduler(max, description="max"),  # named builtin: picklable
    ],
    ids=["constant", "cyclic", "random", "function"],
)
def test_schedulers_pickle_roundtrip(scheduler):
    clone = _roundtrip(scheduler)
    assert clone.describe() == scheduler.describe()
    if not isinstance(scheduler, FunctionScheduler):
        assert [clone.select(i, 2) for i in range(1, 20)] == [
            scheduler.select(i, 2) for i in range(1, 20)
        ]


def test_function_scheduler_with_lambda_is_not_picklable():
    unpicklable = FunctionScheduler(lambda iteration, choices: 0)
    with pytest.raises(Exception):
        pickle.dumps(unpicklable)


def test_superoperators_pickle_roundtrip():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    kraus = SuperOperator([np.kron(hadamard, np.eye(2))])
    assert _roundtrip(kraus).equals(kraus)
    transfer = TransferSuperOperator.from_superoperator(kraus)
    assert _roundtrip(transfer).equals(transfer)
    stack = TransferSet.from_operators([transfer, transfer.compose(transfer)])
    clone = _roundtrip(stack)
    assert len(clone) == len(stack)
    assert all(a.equals(b) for a, b in zip(clone.operators(), stack.operators()))


def test_denotation_options_pickle_roundtrip():
    options = DenotationOptions(backend="transfer", parallelism=2)
    clone = _roundtrip(options)
    assert clone == options


# ---------------------------------------------------------------------------
# Executor: sharding, fallback rules, option plumbing
# ---------------------------------------------------------------------------


def _double(value):
    return value * 2


class TestExecutor:
    def test_shard_evenly_preserves_order_and_contiguity(self):
        items = list(range(11))
        shards = shard_evenly(items, 4)
        assert [item for shard in shards for item in shard] == items
        assert len(shards) == 4
        assert all(shards)  # no empty shard
        assert shard_evenly(items, 100) == [[i] for i in items]

    def test_shard_evenly_slices_numpy_stacks(self):
        stack = np.arange(24).reshape(6, 2, 2)
        shards = shard_evenly(stack, 4)
        assert np.array_equal(np.concatenate(shards, axis=0), stack)

    def test_effective_jobs(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(1) == 1
        assert effective_jobs(0) >= 1  # auto: one per core

    def test_serial_fallback_rules(self):
        payloads = [(1,), (2,)]
        assert parallel_map(_double, payloads, jobs=1) is None  # parallelism off
        assert parallel_map(_double, [(1,)], jobs=2) is None  # below two payloads
        assert (
            parallel_map(_double, payloads, jobs=2, work_size=MIN_WORK_DIMENSION - 1)
            is None
        )  # sub-threshold work
        unpicklable = [(lambda: 1,), (lambda: 2,)]
        assert parallel_map(_double, unpicklable, jobs=2) is None  # unpicklable payload

    def test_parallel_map_returns_ordered_results(self):
        payloads = [(value,) for value in range(7)]
        results = parallel_map(_double, payloads, jobs=2)
        assert results == [value * 2 for value in range(7)]
        assert not in_worker()

    def test_worker_exceptions_propagate(self):
        def boom(value):
            raise ValueError(f"bad {value}")

        # Module-level functions are required for pickling; a local function
        # fails the pre-pickle check and falls back instead of raising.
        assert parallel_map(boom, [(1,), (2,)], jobs=2) is None
        with pytest.raises(ZeroDivisionError):
            parallel_map(_divide_by, [(1,), (0,)], jobs=2)

    def test_parallelism_excluded_from_cache_signature(self):
        assert options_signature(DenotationOptions(parallelism=4)) == options_signature(
            DenotationOptions()
        )
        assert options_signature(WpOptions(parallelism=4)) == options_signature(WpOptions())
        assert options_signature(ProverOptions(parallelism=4)) == options_signature(
            ProverOptions()
        )

    def test_invalid_parallelism_rejected(self):
        from repro.exceptions import SemanticsError

        with pytest.raises(SemanticsError):
            DenotationOptions(parallelism=-1)
        with pytest.raises(SemanticsError):
            WpOptions(parallelism=-2)
        with pytest.raises(SemanticsError):
            ProverOptions(parallelism=-1)


def _divide_by(value):
    return 1 // value


# ---------------------------------------------------------------------------
# Worker-state merge: cache deltas, metric sums, adopted span subtrees
# ---------------------------------------------------------------------------


class TestStateMerge:
    def test_metrics_diff_and_absorb(self):
        registry = MetricsRegistry()
        registry.counter("n", kind="a").inc(2)
        before = registry.export_state()
        registry.counter("n", kind="a").inc(3)
        registry.counter("n", kind="b").inc(1)
        registry.gauge("g").set(7.5)
        registry.histogram("h").observe(0.5)
        delta = MetricsRegistry.diff_states(before, registry.export_state())
        target = MetricsRegistry()
        target.counter("n", kind="a").inc(10)
        target.absorb_state(delta)
        snapshot = target.snapshot()
        assert snapshot["counters"]["n{kind=a}"] == 13
        assert snapshot["counters"]["n{kind=b}"] == 1
        assert snapshot["gauges"]["g"] == 7.5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_histogram_absorb_merges_extremes(self):
        source, target = MetricsRegistry(), MetricsRegistry()
        source.histogram("h").observe(0.001)
        source.histogram("h").observe(5.0)
        target.histogram("h").observe(0.1)
        target.histogram("h").absorb(source.histogram("h").state())
        merged = target.histogram("h").snapshot()
        assert merged["count"] == 3
        assert merged["min"] == pytest.approx(0.001)
        assert merged["max"] == pytest.approx(5.0)

    def test_parallel_run_merges_worker_cache_entries(self):
        program, register = qwalk_program(8), qwalk_register(8)
        clear_result_cache()
        denotation(program, register, DenotationOptions(parallelism=2))
        stats = cache_stats()
        # The loop-prefix chains were computed inside workers; their inserts
        # and counter bumps must be visible in the parent's cache_stats().
        assert stats["regions"]["loop-prefix"]["misses"] > 0
        assert stats["size"] > 1
        clear_result_cache()

    def test_parallel_run_merges_worker_metrics(self):
        program, register = qwalk_program(8), qwalk_register(8)
        clear_result_cache()
        METRICS.reset(prefix="parallel.")
        denotation(program, register, DenotationOptions(parallelism=2))
        counters = metrics_snapshot()["counters"]
        assert counters["parallel.dispatches{function=loop_scheduler_shard}"] >= 1
        assert counters["parallel.tasks{function=loop_scheduler_shard}"] >= 2
        clear_result_cache()

    def test_parallel_run_adopts_worker_spans(self):
        program, register = qwalk_program(8), qwalk_register(8)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        configure_tracing(enabled=True)
        tracer.clear()
        clear_result_cache()
        try:
            denotation(program, register, DenotationOptions(parallelism=2))
        finally:
            configure_tracing(enabled=was_enabled)
        roots = tracer.finished_roots()
        tracer.clear()
        clear_result_cache()
        adopted = [node for root in roots for node in root.walk() if "worker_pid" in node.tags]
        assert adopted, "worker span subtrees were not adopted into the parent trace"
        # Re-parented under the dispatching loop span, not floating as roots.
        loop_spans = [node for root in roots for node in root.walk() if node.name == "loop"]
        assert any(
            "worker_pid" in child.tags for node in loop_spans for child in node.children
        )

    def test_span_tree_roundtrip(self):
        from repro.telemetry.tracing import span_tree_from_dict, span_tree_to_dict

        tracer = get_tracer()
        was_enabled = tracer.enabled
        configure_tracing(enabled=True)
        tracer.clear()
        try:
            with tracer.span("outer", region="denotation"):
                with tracer.span("inner", region="loop"):
                    pass
        finally:
            configure_tracing(enabled=was_enabled)
        root = tracer.finished_roots()[-1]
        tracer.clear()
        clone = span_tree_from_dict(span_tree_to_dict(root))
        assert clone.name == "outer"
        assert clone.children[0].name == "inner"
        assert clone.duration == pytest.approx(root.duration, abs=1e-6)
        assert clone.children[0].parent_id == clone.span_id


# ---------------------------------------------------------------------------
# Satellite 3b — serial-vs-parallel differential sweep (acceptance)
# ---------------------------------------------------------------------------


def sweep_cases():
    """Yield ``(name, formula, register, invariants)`` across sizes 2–4 qubits."""
    yield "deutsch", *deutsch_formula(), []
    for qubits in (2, 3, 4):
        yield f"grover{qubits}", *grover_formula(qubits, layout="gates"), []
    for positions in (4, 8, 16):
        formula, register = qwalk_formula(positions)
        yield f"qwalk{positions}", formula, register, [qwalk_invariant(positions)]
    for code_size in (3, 4):
        yield f"errcorr{code_size}", *errcorr_formula(num_data_qubits=code_size), []
    formula, register = rus_formula()
    yield "rus", formula, register, [rus_invariant()]


CASES = list(sweep_cases())
JOB_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("name,formula,register,invariants", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("backend", BACKENDS)
def test_denotation_serial_parallel_differential(name, formula, register, invariants, backend):
    program = formula.program
    runs = {}
    for jobs in JOB_COUNTS:
        # Clearing between runs forces every job count to actually recompute
        # (the parallelism-agnostic cache key would otherwise serve jobs>1
        # straight from the jobs=1 entry and never exercise the workers).
        clear_result_cache()
        options = DenotationOptions(backend=backend, parallelism=jobs)
        runs[jobs] = denotation(program, register, options)
    clear_result_cache()
    serial = runs[1]
    for jobs in JOB_COUNTS[1:]:
        parallel = runs[jobs]
        # Identical ordering AND identical elements to ATOL — not just set
        # equality: sharding must preserve the serial result order exactly.
        assert len(parallel) == len(serial), (name, jobs)
        for position, (a, b) in enumerate(zip(serial, parallel)):
            assert a.equals(b, atol=ATOL), (name, jobs, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    [case for case in CASES if case[2].num_qubits <= 3],
    ids=[c[0] for c in CASES if c[2].num_qubits <= 3],
)
def test_wp_serial_parallel_differential(name, formula, register, invariants):
    program, post = formula.program, formula.postcondition
    for liberal, transform in ((False, weakest_precondition), (True, weakest_liberal_precondition)):
        runs = {}
        for jobs in JOB_COUNTS:
            clear_result_cache()
            runs[jobs] = transform(program, post, register, WpOptions(parallelism=jobs))
        clear_result_cache()
        serial = runs[1].predicates
        for jobs in JOB_COUNTS[1:]:
            parallel = runs[jobs].predicates
            assert len(parallel) == len(serial), (name, liberal, jobs)
            for position, (a, b) in enumerate(zip(serial, parallel)):
                assert np.allclose(a.matrix, b.matrix, atol=ATOL), (name, liberal, jobs, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    [case for case in CASES if case[2].num_qubits <= 3],
    ids=[c[0] for c in CASES if c[2].num_qubits <= 3],
)
def test_prover_serial_parallel_differential(name, formula, register, invariants):
    preconditions = {}
    for jobs in JOB_COUNTS:
        clear_result_cache()
        report = verify_formula(
            formula, register, invariants or None, options=ProverOptions(parallelism=jobs)
        )
        assert report.verified, (name, jobs)
        preconditions[jobs] = report.verification_condition.predicates
    clear_result_cache()
    serial = preconditions[1]
    for jobs in JOB_COUNTS[1:]:
        parallel = preconditions[jobs]
        assert len(parallel) == len(serial), (name, jobs)
        for position, (a, b) in enumerate(zip(serial, parallel)):
            assert np.allclose(a.matrix, b.matrix, atol=ATOL), (name, jobs, position)


def test_prover_meas_union_fanout_dispatches_and_agrees():
    """Drive the per-predicate (Meas)+(Union) fan-out through actual workers."""
    from repro.logic.formula import CorrectnessMode

    program, register = errcorr_program(3), errcorr_register(3)
    target = next(node for node in program.walk() if isinstance(node, If))
    rng = np.random.default_rng(7)
    dimension = register.dimension
    predicates = []
    for _ in range(3):
        raw = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        hermitian = raw @ raw.conj().T
        hermitian = hermitian / (np.linalg.norm(hermitian, 2) * 1.001)
        predicates.append(QuantumPredicate(hermitian))
    post = QuantumAssertion(predicates)

    clear_result_cache()
    serial_prover = Prover(register, CorrectnessMode.PARTIAL, {}, ProverOptions())
    serial = serial_prover._annotate(target, post)
    clear_result_cache()
    METRICS.reset(prefix="parallel.")
    parallel_prover = Prover(
        register, CorrectnessMode.PARTIAL, {}, ProverOptions(parallelism=2)
    )
    parallel = parallel_prover._annotate(target, post)
    clear_result_cache()
    counters = metrics_snapshot()["counters"]
    assert counters.get("parallel.dispatches{function=prover_predicate_shard}", 0) >= 1
    assert len(parallel.precondition.predicates) == len(serial.precondition.predicates)
    for a, b in zip(serial.precondition.predicates, parallel.precondition.predicates):
        assert np.allclose(a.matrix, b.matrix, atol=ATOL)
    # Worker proof events were appended to the parent prover's log.  The raw
    # event counts may differ: a repeated (subterm, post) pair yields a cache
    # notice plus a replayed rule event when both occurrences land in one
    # process, but two fresh rule events when workers with independent caches
    # each compute one occurrence.  The multiset of rule *applications* is
    # invariant under that replay/fresh distinction, so compare that.
    def rule_applications(prover):
        from collections import Counter

        return Counter(
            (event.rule, event.subterm_digest)
            for event in prover.events
            if event.kind == "rule"
        )

    assert rule_applications(parallel_prover) == rule_applications(serial_prover)
    assert sum(rule_applications(parallel_prover).values()) > 0


def test_explicit_unpicklable_schedulers_fall_back_to_serial():
    program, register = qwalk_program(4), qwalk_register(4)
    schedulers = [FunctionScheduler(lambda iteration, choices: 0, description="lam")]
    options = DenotationOptions(schedulers=schedulers, parallelism=2)
    serial_options = DenotationOptions(schedulers=schedulers)
    maps = denotation(program, register, options)
    reference = denotation(program, register, serial_options)
    assert len(maps) == len(reference)
    for a, b in zip(reference, maps):
        assert a.equals(b, atol=ATOL)


def test_sampled_schedulers_identical_across_processes():
    # The default exploration policy must be reproducible in workers: pickled
    # schedulers re-derive the same choice sequences from their seeds alone.
    for scheduler in sample_schedulers(3, seed=0):
        clone = pickle.loads(pickle.dumps(scheduler))
        assert [clone.select(i, 2) for i in range(1, 65)] == [
            scheduler.select(i, 2) for i in range(1, 65)
        ]
