"""Unit tests for :class:`repro.superop.kraus.SuperOperator`."""

import pickle

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, SuperOperatorError
from repro.linalg.constants import CX, H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_density_operator, random_kraus_operators, random_unitary
from repro.linalg.states import density, ket, maximally_mixed, plus_state
from repro.registers import QubitRegister
from repro.superop.kraus import SuperOperator


class TestConstruction:
    def test_from_unitary(self):
        channel = SuperOperator.from_unitary(X)
        assert channel.is_trace_preserving()
        assert operators_close(channel.apply(density(ket("0"))), density(ket("1")))

    def test_from_unitary_rejects_non_unitary(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator.from_unitary(P0)

    def test_validation_rejects_trace_increasing(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator([2.0 * I2])

    def test_empty_kraus_rejected(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator([])

    def test_mismatched_kraus_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SuperOperator([I2, CX])

    def test_scalar(self):
        half = SuperOperator.scalar(0.5, 2)
        assert operators_close(half.apply(density(ket("0"))), 0.5 * density(ket("0")))
        with pytest.raises(SuperOperatorError):
            SuperOperator.scalar(1.5, 2)

    def test_identity_and_zero(self):
        rho = density(plus_state())
        assert operators_close(SuperOperator.identity(2).apply(rho), rho)
        assert operators_close(SuperOperator.zero(2).apply(rho), np.zeros((2, 2)))

    def test_initializer_resets_to_zero(self):
        channel = SuperOperator.initializer(1)
        assert channel.is_trace_preserving()
        assert operators_close(channel.apply(density(ket("1"))), density(ket("0")))
        assert operators_close(channel.apply(maximally_mixed(1)), density(ket("0")))


class TestApplication:
    def test_measurement_channel(self):
        channel = SuperOperator.from_projectors([P0, P1])
        rho = density(plus_state())
        assert operators_close(channel.apply(rho), maximally_mixed(1))
        assert channel.is_trace_preserving()

    def test_apply_adjoint_duality(self):
        """tr(E(ρ)·M) = tr(ρ·E†(M)) for all ρ, M (Sec. 2)."""
        channel = SuperOperator([P0, X @ P1])
        rho = density(plus_state())
        observable = np.array([[0.2, 0.1], [0.1, 0.9]], dtype=complex)
        lhs = np.trace(channel.apply(rho) @ observable)
        rhs = np.trace(rho @ channel.apply_adjoint(observable))
        assert lhs == pytest.approx(rhs)

    def test_apply_checks_dimension(self):
        channel = SuperOperator.identity(2)
        with pytest.raises(DimensionMismatchError):
            channel.apply(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            channel.apply_adjoint(np.eye(4))

    def test_trace_nonincreasing_projection(self):
        channel = SuperOperator([P0])
        assert channel.is_trace_nonincreasing()
        assert not channel.is_trace_preserving()
        output = channel.apply(density(plus_state()))
        assert np.trace(output).real == pytest.approx(0.5)


class TestAlgebra:
    def test_compose_order(self):
        x_then_measure = SuperOperator([P0]).compose(SuperOperator.from_unitary(X))
        # First X (|0⟩→|1⟩), then project onto |0⟩ → zero state.
        assert np.trace(x_then_measure.apply(density(ket("0")))).real == pytest.approx(0.0)
        assert np.trace(x_then_measure.apply(density(ket("1")))).real == pytest.approx(1.0)

    def test_then_is_reverse_of_compose(self):
        a = SuperOperator.from_unitary(H)
        b = SuperOperator([P0])
        assert a.then(b).equals(b.compose(a))

    def test_addition(self):
        total = SuperOperator([P0]) + SuperOperator([P1])
        assert total.is_trace_preserving()

    def test_scaling(self):
        scaled = 0.25 * SuperOperator.identity(2)
        assert np.trace(scaled.apply(density(ket("0")))).real == pytest.approx(0.25)
        with pytest.raises(SuperOperatorError):
            (-1.0) * SuperOperator.identity(2)

    def test_tensor(self):
        product = SuperOperator.from_unitary(X).tensor(SuperOperator.identity(2))
        rho = density(ket("00"))
        assert operators_close(product.apply(rho), density(ket("10")))

    def test_embed_into_register(self):
        register = QubitRegister(["a", "b"])
        embedded = SuperOperator.from_unitary(X).embed(["b"], register)
        assert operators_close(embedded.apply(density(ket("00"))), density(ket("01")))

    def test_dimension_mismatch_in_algebra(self):
        with pytest.raises(DimensionMismatchError):
            SuperOperator.identity(2).compose(SuperOperator.identity(4))
        with pytest.raises(DimensionMismatchError):
            SuperOperator.identity(2) + SuperOperator.identity(4)


class TestOrderingAndEquality:
    def test_equality_is_representation_independent(self):
        # The maximally dephasing channel has several Kraus decompositions.
        dephase_projectors = SuperOperator([P0, P1])
        dephase_pauli = SuperOperator([I2 / np.sqrt(2), np.array([[1, 0], [0, -1]]) / np.sqrt(2)])
        assert dephase_projectors.equals(dephase_pauli)
        assert dephase_projectors == dephase_pauli

    def test_precedes(self):
        partial = SuperOperator([P0])
        total = SuperOperator([P0, P1])
        assert partial.precedes(total)
        assert not total.precedes(partial)

    def test_precedes_is_reflexive(self):
        channel = SuperOperator.from_unitary(H)
        assert channel.precedes(channel)

    def test_simplified_preserves_action(self):
        channel = SuperOperator([P0 / np.sqrt(2), P0 / np.sqrt(2), P1])
        simplified = channel.simplified()
        assert simplified.equals(channel)
        assert len(simplified.kraus_operators) <= len(channel.kraus_operators)

    def test_probability_bound(self):
        assert SuperOperator([P0]).probability_bound() == pytest.approx(1.0)
        assert SuperOperator.scalar(0.3, 2).probability_bound() == pytest.approx(0.3)
        assert SuperOperator.zero(2).probability_bound() == pytest.approx(0.0)


def liouville(kraus):
    """Return ``Σ K ⊗ conj(K)``: the matrix of the map on row-major ``vec(ρ)``."""
    return sum(np.kron(operator, operator.conj()) for operator in kraus)


def row_vec(matrix):
    return np.asarray(matrix).reshape(-1)


def unvec(vector, dimension):
    return vector.reshape(dimension, dimension)


#: ``(dimension, Kraus count, seed)`` of the random maps in the Liouville checks.
LIOUVILLE_CASES = pytest.mark.parametrize(
    "dimension,count,seed", [(2, 1, 0), (2, 3, 1), (4, 2, 2)], ids=["d2-k1", "d2-k3", "d4-k2"]
)


def _random_map(dimension, count, seed):
    kraus = random_kraus_operators(dimension, count=count, trace_preserving=False, seed=seed)
    return SuperOperator(kraus), kraus


class TestLiouvilleReference:
    """Kraus-form algebra against the matrix of the map on ``vec(ρ)``.

    The Liouville matrix ``L(E) = Σ K ⊗ conj(K)`` turns every operation on
    maps into plain linear algebra, so it is an independent reference for
    what the Kraus lists compute.
    """

    @LIOUVILLE_CASES
    def test_apply_is_the_liouville_action(self, dimension, count, seed):
        channel, kraus = _random_map(dimension, count, seed)
        rho = random_density_operator(dimension, seed=seed + 10)
        expected = unvec(liouville(kraus) @ row_vec(rho), dimension)
        assert np.allclose(channel.apply(rho), expected)

    @LIOUVILLE_CASES
    def test_adjoint_is_the_conjugate_transpose(self, dimension, count, seed):
        channel, kraus = _random_map(dimension, count, seed)
        observable = random_density_operator(dimension, seed=seed + 20)
        expected = unvec(liouville(kraus).conj().T @ row_vec(observable), dimension)
        assert np.allclose(channel.apply_adjoint(observable), expected)
        assert np.allclose(liouville(channel.adjoint().kraus_operators), liouville(kraus).conj().T)

    @LIOUVILLE_CASES
    def test_compose_multiplies_the_matrices(self, dimension, count, seed):
        first, first_kraus = _random_map(dimension, count, seed)
        second, second_kraus = _random_map(dimension, count + 1, seed + 100)
        composed = first.compose(second)
        expected = liouville(first_kraus) @ liouville(second_kraus)
        assert np.allclose(liouville(composed.kraus_operators), expected)
        assert np.allclose(liouville(second.then(first).kraus_operators), expected)

    @LIOUVILLE_CASES
    def test_addition_adds_the_matrices(self, dimension, count, seed):
        first, first_kraus = _random_map(dimension, count, seed)
        second, second_kraus = _random_map(dimension, count, seed + 100)
        total = first + second
        assert np.allclose(
            liouville(total.kraus_operators), liouville(first_kraus) + liouville(second_kraus)
        )

    @LIOUVILLE_CASES
    def test_scaling_scales_the_matrix(self, dimension, count, seed):
        channel, kraus = _random_map(dimension, count, seed)
        factor = 0.1 + 0.2 * seed
        assert np.allclose(liouville((factor * channel).kraus_operators), factor * liouville(kraus))

    @LIOUVILLE_CASES
    def test_tensor_is_the_reshuffled_kron(self, dimension, count, seed):
        first, first_kraus = _random_map(dimension, count, seed)
        second, second_kraus = _random_map(2, 2, seed + 100)
        # kron(L_A, L_B) is indexed ((i_a, j_a), (i_b, j_b)) × ((k_a, l_a), (k_b, l_b));
        # the product map wants ((i_a, i_b), (j_a, j_b)) × ((k_a, k_b), (l_a, l_b)).
        d_a, d_b = dimension, 2
        product = np.kron(liouville(first_kraus), liouville(second_kraus))
        product = product.reshape(d_a, d_a, d_b, d_b, d_a, d_a, d_b, d_b)
        expected = product.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(
            (d_a * d_b) ** 2, (d_a * d_b) ** 2
        )
        assert np.allclose(liouville(first.tensor(second).kraus_operators), expected)

    @LIOUVILLE_CASES
    def test_choi_is_the_reshuffled_matrix(self, dimension, count, seed):
        channel, kraus = _random_map(dimension, count, seed)
        reshuffled = (
            channel.choi()
            .reshape(dimension, dimension, dimension, dimension)
            .transpose(0, 2, 1, 3)
            .reshape(dimension**2, dimension**2)
        )
        assert np.allclose(reshuffled, liouville(kraus))

    @LIOUVILLE_CASES
    def test_unitary_mixing_of_kraus_operators_keeps_the_map(self, dimension, count, seed):
        channel, kraus = _random_map(dimension, count, seed)
        mixing = random_unitary(count, seed=seed + 30)
        mixed = [sum(mixing[i, j] * kraus[j] for j in range(count)) for i in range(count)]
        assert np.allclose(liouville(mixed), liouville(kraus))
        assert SuperOperator(mixed, validate=False).equals(channel)


def test_superoperator_pickle_roundtrip():
    kraus = SuperOperator([np.kron(H, np.eye(2))])
    assert pickle.loads(pickle.dumps(kraus)).equals(kraus)
