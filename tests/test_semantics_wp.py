"""Unit tests for the weakest (liberal) precondition transformers (Fig. 5)."""

import numpy as np
import pytest

from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Skip,
    Unitary,
    While,
    ndet,
    seq,
)
from repro.assistant.verify import build_task
from repro.fuzz import generate_batch
from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_density_operator, random_predicate_matrix
from repro.predicates.assertion import QuantumAssertion
from repro.programs import (
    deutsch_program,
    errcorr_program,
    grover_program,
    nondeterministic_rus_program,
    phaseflip_program,
    qwalk_program,
    rus_program,
    teleport_program,
)
from repro.programs.deutsch import deutsch_formula
from repro.programs.errcorr import errcorr_formula
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_formula
from repro.programs.rus import rus_formula
from repro.registers import QubitRegister
from repro.semantics.denotational import DenotationOptions, denotation
from repro.semantics.schedulers import RandomScheduler
from repro.semantics.wp import (
    WpOptions,
    weakest_liberal_precondition,
    weakest_precondition,
)


@pytest.fixture
def q_register():
    return QubitRegister(["q"])


def single(assertion):
    assert len(assertion) == 1
    return assertion.predicates[0].matrix


class TestBasicTransformers:
    def test_skip(self, q_register):
        post = QuantumAssertion([P0])
        assert weakest_precondition(Skip(), post, q_register).set_equal(post)
        assert weakest_liberal_precondition(Skip(), post, q_register).set_equal(post)

    def test_abort_distinguishes_wp_and_wlp(self, q_register):
        post = QuantumAssertion([P0])
        assert operators_close(single(weakest_precondition(Abort(), post, q_register)), np.zeros((2, 2)))
        assert operators_close(single(weakest_liberal_precondition(Abort(), post, q_register)), I2)

    def test_unitary_is_conjugation(self, q_register):
        post = QuantumAssertion([P0])
        pre = weakest_precondition(Unitary(("q",), "X", X), post, q_register)
        assert operators_close(single(pre), P1)

    def test_init(self, q_register):
        post = QuantumAssertion([P1])
        pre = weakest_precondition(Init(("q",)), post, q_register)
        # ⟨0|P1|0⟩ = 0, so the precondition is the zero predicate.
        assert operators_close(single(pre), np.zeros((2, 2)))
        post_zero = QuantumAssertion([P0])
        pre_zero = weakest_precondition(Init(("q",)), post_zero, q_register)
        assert operators_close(single(pre_zero), I2)

    def test_sequence(self, q_register):
        program = seq(Unitary(("q",), "H", H), Unitary(("q",), "X", X))
        post = QuantumAssertion([P0])
        pre = weakest_precondition(program, post, q_register)
        expected = H.conj().T @ X.conj().T @ P0 @ X @ H
        assert operators_close(single(pre), expected)

    def test_ndet_is_union(self, q_register):
        program = ndet(Skip(), Unitary(("q",), "X", X))
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        assert pre.set_equal(QuantumAssertion([P0, P1]))

    def test_if_combines_branches(self, q_register):
        program = If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X), Skip())
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        # else (outcome 0): P0·P0·P0 = P0; then (outcome 1): P1·X P0 X·P1 = P1; sum = I.
        assert operators_close(single(pre), I2)

    def test_assertion_with_multiple_predicates(self, q_register):
        program = Unitary(("q",), "X", X)
        pre = weakest_precondition(program, QuantumAssertion([P0, P1]), q_register)
        assert pre.set_equal(QuantumAssertion([P1, P0]))


class TestDualityWithDenotation:
    """Lemma A.1(1)/(2): wp/wlp agree with adjoints of the denotation."""

    @pytest.mark.parametrize(
        "program",
        [
            seq(Init(("q",)), Unitary(("q",), "H", H)),
            ndet(Skip(), Unitary(("q",), "X", X)),
            If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H), Abort()),
            seq(ndet(Unitary(("q",), "H", H), Skip()), If(MEAS_COMPUTATIONAL, ("q",), Skip(), Unitary(("q",), "X", X))),
        ],
    )
    def test_wp_matches_adjoint_of_denotation(self, program, q_register):
        post = QuantumAssertion([P0])
        pre = weakest_precondition(program, post, q_register)
        expected = QuantumAssertion(
            [channel.apply_adjoint(P0) for channel in denotation(program, q_register)]
        )
        assert pre.set_equal(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_wp_expectation_duality_on_states(self, seed, q_register):
        """tr(wp.S.M · ρ) = tr(M · [[S]](ρ)) branch-wise for deterministic programs."""
        program = seq(Init(("q",)), Unitary(("q",), "H", H))
        rho = random_density_operator(2, seed=seed)
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        channel = denotation(program, q_register)[0]
        lhs = pre.expectation(rho)
        rhs = float(np.real(np.trace(P0 @ channel.apply(rho))))
        assert lhs == pytest.approx(rhs)


class TestLoops:
    def test_terminating_loop_wp_is_identity(self, q_register):
        """For the repeat-until-success loop, wp.while.[|0⟩] = I (see Sec. programs.rus)."""
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        pre = weakest_precondition(loop, QuantumAssertion([P0]), q_register, WpOptions(max_iterations=80))
        assert operators_close(single(pre), I2, atol=1e-5)

    def test_nonterminating_loop_wlp_is_identity_wp_is_partial(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        wlp = weakest_liberal_precondition(loop, QuantumAssertion([P0]), q_register)
        # wlp = P0 + P1 (loop either exits in |0⟩ satisfying P0, or diverges) = I.
        assert operators_close(single(wlp), I2, atol=1e-6)
        wp = weakest_precondition(loop, QuantumAssertion([P0]), q_register)
        # wp only credits terminating runs: the |1⟩ component diverges.
        assert operators_close(single(wp), P0, atol=1e-6)

    def test_loop_with_nondeterministic_body_yields_multiple_predicates(self, q_register):
        body = ndet(Unitary(("q",), "H", H), seq(Unitary(("q",), "X", X), Unitary(("q",), "H", H)))
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        wlp = weakest_liberal_precondition(loop, QuantumAssertion([P0]), q_register)
        assert len(wlp) >= 1
        for predicate in wlp:
            assert predicate.dimension == 2


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _assert_dual(program, post, register, liberal, atol, **loop_options):
    """Assert that wp/wlp is the adjoint of the denotation under the same options.

    ``wp.S.{P} = {E†(P)}`` and ``wlp.S.{P} = {E†(P) + I − E†(I)}`` over
    ``E ∈ [[S]]``.  Every transformed predicate must be one of those to
    ``atol``.  The denotation is taken without deduplication, so it has every
    explored scheduler's map; the transformer keeps one predicate of each
    group ``np.allclose`` cannot tell apart, hence the relative tolerance the
    other way round.
    """
    transformer = weakest_liberal_precondition if liberal else weakest_precondition
    computed = [p.matrix for p in transformer(program, post, register, WpOptions(**loop_options))]
    identity = np.eye(register.dimension)
    dual = []
    for channel in denotation(program, register, DenotationOptions(dedup=False, **loop_options)):
        leak = identity - channel.apply_adjoint(identity) if liberal else 0
        dual.extend(channel.apply_adjoint(p.matrix) + leak for p in post)
    gap = max(min(np.abs(c - d).max() for d in dual) for c in computed)
    assert gap < atol
    assert all(any(np.allclose(d, c, rtol=1e-5, atol=atol) for c in computed) for d in dual)


#: Every program of the library, keyed for readable parametrised test ids.
PROGRAMS = {
    "deutsch": deutsch_program,
    "errcorr": errcorr_program,
    "grover2": lambda: grover_program(2),
    "grover3": lambda: grover_program(3),
    "phaseflip": phaseflip_program,
    "qwalk": qwalk_program,
    "rus": rus_program,
    "rus_ndet": nondeterministic_rus_program,
    "teleport": teleport_program,
}


def _sized_case_studies():
    """Yield ``(name, formula, register)`` for the case-study formulas at 2–3 qubits."""
    yield "deutsch", *deutsch_formula()
    for qubits in (2, 3):
        yield f"grover{qubits}", *grover_formula(qubits)
        yield f"grover{qubits}-gates", *grover_formula(qubits, layout="gates")
    for positions in (4, 8):
        yield f"qwalk{positions}", *qwalk_formula(positions)
    yield "errcorr3", *errcorr_formula(num_data_qubits=3)
    yield "rus", *rus_formula()


SIZED_CASE_STUDIES = list(_sized_case_studies())


class TestLoopDuality:
    """The backward Fig. 5 sequences are dual to the forward chains ``F^η_N``."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
    def test_case_studies_are_dual_at_exact_depth(self, name, liberal):
        program = PROGRAMS[name]()
        register = QubitRegister.for_program(program)
        post = QuantumAssertion([random_predicate_matrix(register.dimension, seed=5)])
        _assert_dual(
            program, post, register, liberal, 1e-8, max_iterations=16, convergence_tolerance=0.0
        )

    @pytest.mark.parametrize(
        "name,formula,register", SIZED_CASE_STUDIES, ids=[c[0] for c in SIZED_CASE_STUDIES]
    )
    @pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
    def test_case_study_formulas_are_dual_at_exact_depth_across_sizes(
        self, name, formula, register, liberal
    ):
        _assert_dual(
            formula.program,
            formula.postcondition,
            register,
            liberal,
            1e-8,
            max_iterations=16,
            convergence_tolerance=0.0,
        )

    @pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
    def test_fuzz_draw_188_is_dual_at_exact_depth(self, liberal):
        # Both engines must cover max_iterations body iterations; a backward
        # sequence one iteration short differed by 3.2e-3 (wp) and 4.8e-3 (wlp).
        task = build_task(generate_batch(2023, 200)[188].source())
        _assert_dual(
            task.formula.program,
            task.formula.postcondition,
            task.register,
            liberal,
            1e-6,
            max_iterations=24,
            convergence_tolerance=0.0,
        )

    @pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
    def test_random_scheduler_result_does_not_depend_on_the_tolerance(self, liberal):
        # Stopping the backward sequence early keeps f_{η_1} … f_{η_j} and
        # drops the scheduler's *last* choices only for a constant scheduler;
        # for a random one it returned the transformer of a shifted scheduler
        # (a 1.5e-3 difference here).
        register = QubitRegister(["q", "r"])
        body = ndet(
            Unitary(("q",), "RY", _ry(1.2)),
            seq(Unitary(("q",), "RY", _ry(2.6)), Unitary(("r",), "X", X)),
        )
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        post = QuantumAssertion([register.embed(P0, ("r",))])
        transformer = weakest_liberal_precondition if liberal else weakest_precondition
        schedulers = [RandomScheduler(1)]
        default = transformer(loop, post, register, WpOptions(schedulers=schedulers))
        exact = transformer(
            loop, post, register, WpOptions(schedulers=schedulers, convergence_tolerance=0.0)
        )
        assert np.abs(single(default) - single(exact)).max() < 1e-8
        _assert_dual(loop, post, register, liberal, 1e-8, schedulers=schedulers)

    @pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
    def test_duplicate_body_branches_are_one_scheduler_choice(self, liberal):
        # Both engines must let a scheduler choose among the same list of body
        # maps; the forward chain used to keep the duplicate first branch, so
        # its sampled schedulers drew from three choices and wp/wlp's from two.
        register = QubitRegister(["q", "r"])
        rotate = Unitary(("q",), "RY", _ry(1.2))
        body = ndet(rotate, rotate, seq(Unitary(("q",), "RY", _ry(2.6)), Unitary(("r",), "X", X)))
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        post = QuantumAssertion([register.embed(P0, ("r",))])
        _assert_dual(
            loop, post, register, liberal, 1e-8, max_iterations=16, convergence_tolerance=0.0
        )
