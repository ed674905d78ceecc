"""Dense lifting: every statement is promoted to the full register.

The lifted semantics (Fig. 2) interprets a statement on qubits ``q̄`` of a
register as the cylinder extension of its channel, ``E ⊗ id``, with the
factors permuted into place.  These tests pin that promotion down against an
independent bit-level reference, on every ordered placement of up to three
qubits:

* :func:`embed_operator` agrees with a matrix built element by element;
* lifted channels (``SuperOperator.embed``) act like the sum of the lifted
  Kraus operators;
* the denotation of each elementary statement equals the hand-lifted channel
  set;
* ``wp`` is the adjoint ``{E†(P)}`` of that set, and ``wlp`` is
  ``{E†(P) + I − E†(I)}``;
* a while loop under each constant scheduler is the hand-unrolled chain
  ``F_N = Σ_{n≤N} P⁰ ∘ (B ∘ P¹)ⁿ`` of lifted operators, and its wp/wlp are
  that chain's adjoints at the same depth.
"""

from itertools import permutations

import numpy as np
import pytest

from repro.language.ast import MEAS_COMPUTATIONAL, Abort, If, Init, Skip, Unitary, While, ndet, seq
from repro.linalg.constants import ATOL, CX, H, P0, P1, X
from repro.linalg.random import (
    random_density_operator,
    random_kraus_operators,
    random_predicate_matrix,
)
from repro.linalg.tensor import embed_operator
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.registers import QubitRegister
from repro.semantics.denotational import DenotationOptions, denotation
from repro.semantics.schedulers import ConstantScheduler
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.superop.compare import set_equal
from repro.superop.kraus import SuperOperator

NAMES = ("a", "b", "c")
REGISTER = QubitRegister(NAMES)

#: Every ordered placement of 1, 2 or 3 target qubits in a 3-qubit register.
PLACEMENTS = [
    placement for size in (1, 2, 3) for placement in permutations(range(len(NAMES)), size)
]
PLACEMENT_IDS = ["".join(NAMES[p] for p in placement) for placement in PLACEMENTS]


def reference_lift(small, positions, total_qubits):
    """Build ``small`` on ``positions`` of ``total_qubits`` qubits, element by element.

    Position 0 is the most significant bit.  The input sub-index is read from
    the target bits in the order of ``positions``; every other bit passes
    through unchanged.
    """
    k = len(positions)
    dimension = 2 ** total_qubits
    full = np.zeros((dimension, dimension), dtype=complex)
    for column in range(dimension):
        bits = [(column >> (total_qubits - 1 - i)) & 1 for i in range(total_qubits)]
        sub_in = sum(bits[p] << (k - 1 - j) for j, p in enumerate(positions))
        for sub_out in range(2 ** k):
            out_bits = list(bits)
            for j, p in enumerate(positions):
                out_bits[p] = (sub_out >> (k - 1 - j)) & 1
            row = sum(bit << (total_qubits - 1 - i) for i, bit in enumerate(out_bits))
            full[row, column] += small[sub_out, sub_in]
    return full


def lifted_kraus(kraus, qubits):
    """Lift Kraus operators on the named ``qubits`` of :data:`REGISTER` by the reference."""
    positions = [NAMES.index(name) for name in qubits]
    return [reference_lift(np.asarray(op, dtype=complex), positions, len(NAMES)) for op in kraus]


def channel(kraus):
    return SuperOperator(kraus, validate=False)


def _cx():
    return np.asarray(CX, dtype=complex)


# ---------------------------------------------------------------------------
# The embedding primitive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("positions", PLACEMENTS, ids=PLACEMENT_IDS)
def test_embed_operator_matches_bitwise_reference(positions):
    rng = np.random.default_rng(7)
    side = 2 ** len(positions)
    small = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    expected = reference_lift(small, positions, len(NAMES))
    assert np.allclose(embed_operator(small, positions, len(NAMES)), expected)


# ---------------------------------------------------------------------------
# Lifted channels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("positions", PLACEMENTS, ids=PLACEMENT_IDS)
def test_lifted_channel_matches_lifted_kraus_sum(positions):
    qubits = [NAMES[p] for p in positions]
    kraus = random_kraus_operators(2 ** len(positions), count=2, trace_preserving=False, seed=11)
    lifted = SuperOperator(kraus).embed(qubits, REGISTER)
    reference = lifted_kraus(kraus, qubits)
    rho = random_density_operator(REGISTER.dimension, seed=3)
    expected_state = sum(op @ rho @ op.conj().T for op in reference)
    assert np.allclose(lifted.apply(rho), expected_state, atol=ATOL)
    observable = random_predicate_matrix(REGISTER.dimension, seed=4)
    expected_observable = sum(op.conj().T @ observable @ op for op in reference)
    assert np.allclose(lifted.apply_adjoint(observable), expected_observable, atol=ATOL)
    assert lifted.is_trace_nonincreasing()


# ---------------------------------------------------------------------------
# Statement denotations and their pre-condition transformers
# ---------------------------------------------------------------------------


def _statement_cases():
    """Yield ``(id, statement, expected Kraus sets)`` on the register ``(a, b, c)``."""
    init_kraus = [np.outer([1, 0], [1, 0]), np.outer([1, 0], [0, 1])]
    init_two = [
        np.kron(first, second) for first in init_kraus for second in init_kraus
    ]
    flip_a = lifted_kraus([X], ["a"])[0]
    hadamard_c = lifted_kraus([H], ["c"])[0]
    p0_c, p1_c = (lifted_kraus([p], ["c"])[0] for p in (P0, P1))
    p0_a, p1_a = (lifted_kraus([p], ["a"])[0] for p in (P0, P1))

    yield "unitary-b", Unitary(("b",), "H", H), [lifted_kraus([H], ["b"])]
    yield "cx-ca", Unitary(("c", "a"), "CX", CX), [lifted_kraus([_cx()], ["c", "a"])]
    yield "cx-ac", Unitary(("a", "c"), "CX", CX), [lifted_kraus([_cx()], ["a", "c"])]
    yield "init-b", Init(("b",)), [lifted_kraus(init_kraus, ["b"])]
    yield "init-ca", Init(("c", "a")), [lifted_kraus(init_two, ["c", "a"])]
    yield (
        "if-c",
        If(MEAS_COMPUTATIONAL, ("c",), Unitary(("a",), "X", X), Skip()),
        [[p0_c, flip_a @ p1_c]],
    )
    yield (
        "if-a-abort",
        If(MEAS_COMPUTATIONAL, ("a",), Abort(), Unitary(("c",), "H", H)),
        [[hadamard_c @ p0_a]],
    )
    yield (
        "ndet",
        ndet(Unitary(("b",), "X", X), Unitary(("a", "c"), "CX", CX)),
        [lifted_kraus([X], ["b"]), lifted_kraus([_cx()], ["a", "c"])],
    )
    yield (
        "seq-init-cx",
        seq(Init(("a",)), Unitary(("b", "a"), "CX", CX)),
        [[lifted_kraus([_cx()], ["b", "a"])[0] @ op for op in lifted_kraus(init_kraus, ["a"])]],
    )


STATEMENTS = list(_statement_cases())
STATEMENT_IDS = [case[0] for case in STATEMENTS]


@pytest.mark.parametrize("name,statement,expected", STATEMENTS, ids=STATEMENT_IDS)
def test_statement_denotation_is_the_lifted_channel_set(name, statement, expected):
    maps = denotation(statement, REGISTER)
    reference = [channel(kraus) for kraus in expected]
    assert len(maps) == len(reference), name
    assert set_equal(maps, reference, atol=ATOL), name


@pytest.mark.parametrize("name,statement,expected", STATEMENTS, ids=STATEMENT_IDS)
@pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
def test_preconditions_are_adjoints_of_the_lifted_channels(liberal, name, statement, expected):
    post = random_predicate_matrix(REGISTER.dimension, seed=21)
    identity = np.eye(REGISTER.dimension, dtype=complex)
    predicates = []
    for kraus in expected:
        lifted = channel(kraus)
        matrix = lifted.apply_adjoint(post)
        if liberal:
            matrix = matrix + identity - lifted.apply_adjoint(identity)
        predicates.append(QuantumPredicate(matrix))
    transformer = weakest_liberal_precondition if liberal else weakest_precondition
    computed = transformer(statement, QuantumAssertion([post]), REGISTER)
    assert computed.set_equal(QuantumAssertion(predicates)), name


# ---------------------------------------------------------------------------
# While loops, unrolled by hand
# ---------------------------------------------------------------------------

#: Body iterations of the truncated loop chains compared below.
LOOP_DEPTH = 6
LOOP_SCHEDULERS = [ConstantScheduler(0), ConstantScheduler(1)]


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _loop_cases():
    """Yield ``(id, loop, lifted body unitaries, guard qubit)`` on the register ``(a, b, c)``.

    The guard is measured on one qubit; each body branch rotates it, and on a
    second qubit the other branch entangles the two with a ``CX``.
    """
    for guard in NAMES:
        body = ndet(Unitary((guard,), "RY", _ry(1.1)), Unitary((guard,), "H", H))
        unitaries = [lifted_kraus([_ry(1.1)], [guard])[0], lifted_kraus([H], [guard])[0]]
        yield guard, While(MEAS_COMPUTATIONAL, (guard,), body), unitaries, guard
    for guard, other in permutations(NAMES, 2):
        body = ndet(
            Unitary((guard,), "RY", _ry(0.7)),
            seq(Unitary((other,), "H", H), Unitary((other, guard), "CX", CX)),
        )
        cx = lifted_kraus([_cx()], [other, guard])[0]
        unitaries = [lifted_kraus([_ry(0.7)], [guard])[0], cx @ lifted_kraus([H], [other])[0]]
        yield guard + other, While(MEAS_COMPUTATIONAL, (guard,), body), unitaries, guard


LOOPS = list(_loop_cases())
LOOP_IDS = [case[0] for case in LOOPS]


def _unrolled_chains(unitaries, guard):
    """Return ``F_N`` under each constant scheduler, one Kraus operator per iteration count."""
    p0, p1 = (lifted_kraus([p], [guard])[0] for p in (P0, P1))
    chains = []
    for body in unitaries:
        step = body @ p1
        chains.append(
            channel([p0 @ np.linalg.matrix_power(step, n) for n in range(LOOP_DEPTH + 1)])
        )
    return chains


@pytest.mark.parametrize("name,loop,unitaries,guard", LOOPS, ids=LOOP_IDS)
def test_loop_denotation_is_the_unrolled_lifted_chain(name, loop, unitaries, guard):
    options = DenotationOptions(
        schedulers=LOOP_SCHEDULERS, max_iterations=LOOP_DEPTH, convergence_tolerance=0.0
    )
    maps = denotation(loop, REGISTER, options)
    reference = _unrolled_chains(unitaries, guard)
    assert len(maps) == len(reference), name
    assert set_equal(maps, reference, atol=ATOL), name


@pytest.mark.parametrize("name,loop,unitaries,guard", LOOPS, ids=LOOP_IDS)
@pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
def test_loop_preconditions_are_adjoints_of_the_unrolled_chain(
    liberal, name, loop, unitaries, guard
):
    post = random_predicate_matrix(REGISTER.dimension, seed=23)
    identity = np.eye(REGISTER.dimension, dtype=complex)
    predicates = []
    for chain in _unrolled_chains(unitaries, guard):
        matrix = chain.apply_adjoint(post)
        if liberal:
            matrix = matrix + identity - chain.apply_adjoint(identity)
        predicates.append(QuantumPredicate(matrix))
    options = WpOptions(
        schedulers=LOOP_SCHEDULERS, max_iterations=LOOP_DEPTH, convergence_tolerance=0.0
    )
    transformer = weakest_liberal_precondition if liberal else weakest_precondition
    computed = transformer(loop, QuantumAssertion([post]), REGISTER, options)
    assert computed.set_equal(QuantumAssertion(predicates)), name
