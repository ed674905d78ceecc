"""Unit tests for the transfer-matrix (Liouville) super-operator backend."""

import pickle

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, SuperOperatorError
from repro.linalg.constants import H, X
from repro.linalg.random import (
    random_density_operator,
    random_kraus_operators,
    random_predicate_matrix,
)
from repro.registers import QubitRegister
from repro.superop.choi import choi_matrix
from repro.superop.compare import deduplicate, set_equal, set_subset
from repro.superop.kraus import SuperOperator
from repro.superop.transfer import (
    TransferSet,
    TransferSuperOperator,
    choi_from_transfer,
    kraus_from_transfer,
    transfer_from_choi,
    transfer_matrix,
)


def _random_pair(dimension=4, count=2, seed=0):
    kraus = random_kraus_operators(dimension, count=count, trace_preserving=False, seed=seed)
    return SuperOperator(kraus), TransferSuperOperator.from_kraus(kraus)


class TestConversions:
    def test_reshuffle_is_a_lossless_involution(self):
        kraus = random_kraus_operators(4, count=3, seed=3)
        transfer = transfer_matrix(kraus)
        choi = choi_matrix(kraus)
        # The reshuffle itself is a pure permutation of entries (bit-exact);
        # the two construction routes may round differently, hence the tiny atol.
        assert np.allclose(choi_from_transfer(transfer), choi, atol=1e-13)
        assert np.allclose(transfer_from_choi(choi), transfer, atol=1e-13)
        assert np.array_equal(transfer_from_choi(choi_from_transfer(transfer)), transfer)

    def test_kraus_recovered_from_transfer_generates_the_same_map(self):
        kraus = random_kraus_operators(4, count=3, trace_preserving=False, seed=7)
        transfer = transfer_matrix(kraus)
        recovered = kraus_from_transfer(transfer)
        assert np.allclose(transfer_matrix(recovered), transfer, atol=1e-9)

    def test_transfer_matrix_of_unitary_is_a_kron(self):
        channel = TransferSuperOperator.from_unitary(H)
        assert np.allclose(channel.matrix, np.kron(H, np.conjugate(H)))

    def test_transfer_requires_square_side(self):
        with pytest.raises(DimensionMismatchError):
            TransferSuperOperator(np.eye(3, dtype=complex))

    def test_to_superoperator_round_trip(self):
        kraus_form, transfer_form = _random_pair(seed=11)
        back = transfer_form.to_superoperator()
        assert back.equals(kraus_form)


class TestAlgebraAgreesWithKraus:
    def test_apply_and_adjoint(self):
        kraus_form, transfer_form = _random_pair(seed=0)
        rho = random_density_operator(4, seed=1)
        observable = random_predicate_matrix(4, seed=2)
        assert np.allclose(kraus_form.apply(rho), transfer_form.apply(rho), atol=1e-10)
        assert np.allclose(
            kraus_form.apply_adjoint(observable), transfer_form.apply_adjoint(observable), atol=1e-10
        )

    def test_compose_is_one_matmul(self):
        a_kraus, a_transfer = _random_pair(seed=3)
        b_kraus, b_transfer = _random_pair(seed=4)
        composed = a_transfer.compose(b_transfer)
        assert np.allclose(composed.matrix, a_transfer.matrix @ b_transfer.matrix)
        assert composed.equals(a_kraus.compose(b_kraus))
        assert (a_transfer @ b_transfer).equals(composed)
        assert a_transfer.then(b_transfer).equals(b_kraus.compose(a_kraus))

    def test_addition_and_scaling(self):
        kraus_form, transfer_form = _random_pair(seed=5)
        doubled = transfer_form + transfer_form
        assert np.allclose(doubled.matrix, 2 * transfer_form.matrix)
        assert (0.5 * doubled).equals(kraus_form)
        with pytest.raises(SuperOperatorError):
            transfer_form * -0.5

    def test_tensor_matches_kraus_tensor(self):
        a_kraus, a_transfer = _random_pair(dimension=2, seed=6)
        b_kraus, b_transfer = _random_pair(dimension=2, seed=7)
        assert a_transfer.tensor(b_transfer).equals(a_kraus.tensor(b_kraus))

    def test_embed_matches_kraus_embed(self):
        register = QubitRegister(["a", "b"])
        kraus_form = SuperOperator([X], validate=False)
        transfer_form = TransferSuperOperator.from_unitary(X)
        assert transfer_form.embed(["b"], register).equals(kraus_form.embed(["b"], register))

    def test_structural_predicates(self):
        _, transfer_form = _random_pair(seed=8)
        assert transfer_form.is_trace_nonincreasing()
        identity = TransferSuperOperator.identity(4)
        assert identity.is_trace_preserving()
        assert TransferSuperOperator.zero(4).probability_bound() == pytest.approx(0.0, abs=1e-12)
        kraus_form, transfer_form = _random_pair(seed=9)
        assert transfer_form.probability_bound() == pytest.approx(kraus_form.probability_bound(), abs=1e-9)

    def test_dimension_mismatch_raises(self):
        _, small = _random_pair(dimension=2, seed=1)
        _, large = _random_pair(dimension=4, seed=1)
        with pytest.raises(DimensionMismatchError):
            small.compose(large)
        with pytest.raises(DimensionMismatchError):
            small.apply(np.eye(4, dtype=complex))


class TestOrderingAcrossRepresentations:
    def test_equals_is_representation_independent(self):
        kraus_form, transfer_form = _random_pair(seed=10)
        assert transfer_form.equals(kraus_form)
        assert kraus_form.equals(transfer_form)
        assert transfer_form == TransferSuperOperator.from_superoperator(kraus_form)
        other_kraus, other_transfer = _random_pair(seed=20)
        assert not transfer_form.equals(other_transfer)
        assert not transfer_form.equals(other_kraus)

    def test_precedes_matches_kraus_precedes(self):
        base_kraus, base_transfer = _random_pair(seed=12)
        half = 0.5 * base_transfer
        assert half.precedes(base_transfer)
        assert half.precedes(base_kraus)
        assert not base_transfer.precedes(half)

    def test_set_comparisons_accept_mixed_representations(self):
        kraus_a, transfer_a = _random_pair(seed=13)
        kraus_b, transfer_b = _random_pair(seed=14)
        assert set_equal([kraus_a, kraus_b], [transfer_b, transfer_a])
        assert set_subset([transfer_a], [kraus_a, kraus_b])
        assert not set_subset([transfer_a], [kraus_b])
        assert len(deduplicate([kraus_a, transfer_a, transfer_b])) == 2

    def test_set_comparisons_tolerate_mixed_dimensions(self):
        small = SuperOperator.identity(2)
        large = SuperOperator.identity(4)
        assert set_subset([small], [small, large])
        assert set_subset([small, large], [large, small])
        assert not set_subset([small], [large])
        assert not set_equal([small], [large])
        assert len(deduplicate([small, large, small, large])) == 2


class TestTransferSet:
    def test_shapes_and_accessors(self):
        operators = [TransferSuperOperator.from_unitary(H), TransferSuperOperator.from_unitary(X)]
        batch = TransferSet.from_operators(operators)
        assert len(batch) == 2
        assert batch.dimension == 2
        assert batch[0].equals(operators[0])
        assert all(isinstance(op, TransferSuperOperator) for op in batch)
        with pytest.raises(DimensionMismatchError):
            TransferSet(np.zeros((2, 3, 4)))

    def test_compose_pairwise_enumerates_all_products(self):
        first = TransferSet.from_operators(
            [TransferSuperOperator.from_unitary(H), TransferSuperOperator.from_unitary(X)]
        )
        second = TransferSet.singleton(TransferSuperOperator.from_unitary(H))
        product = first.compose_pairwise(second)
        assert len(product) == 2
        assert product[0].equals(TransferSuperOperator.from_unitary(H @ H))
        assert product[1].equals(TransferSuperOperator.from_unitary(X @ H))

    def test_branch_sum_and_after_each(self):
        p0 = TransferSuperOperator.from_kraus([np.diag([1.0, 0.0]).astype(complex)])
        p1 = TransferSuperOperator.from_kraus([np.diag([0.0, 1.0]).astype(complex)])
        skip = TransferSet.singleton(TransferSuperOperator.identity(2))
        combined = skip.after_each(p0).branch_sum_pairwise(skip.after_each(p1))
        assert len(combined) == 1
        assert combined[0].equals(TransferSuperOperator.from_kraus(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        ))

    def test_deduplicated_keeps_first_occurrences(self):
        h = TransferSuperOperator.from_unitary(H)
        x = TransferSuperOperator.from_unitary(X)
        batch = TransferSet.from_operators([h, x, h, x, h])
        unique = batch.deduplicated()
        assert len(unique) == 2
        assert unique[0].equals(h) and unique[1].equals(x)

    def test_apply_all_batches_states(self):
        h = TransferSuperOperator.from_unitary(H)
        x = TransferSuperOperator.from_unitary(X)
        batch = TransferSet.from_operators([h, x])
        rho = random_density_operator(2, seed=21)
        images = batch.apply_all(rho)
        assert images.shape == (2, 2, 2)
        assert np.allclose(images[0], h.apply(rho), atol=1e-12)
        assert np.allclose(images[1], x.apply(rho), atol=1e-12)


def test_superoperators_pickle_roundtrip():
    def roundtrip(value):
        return pickle.loads(pickle.dumps(value))

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    kraus = SuperOperator([np.kron(hadamard, np.eye(2))])
    assert roundtrip(kraus).equals(kraus)
    transfer = TransferSuperOperator.from_superoperator(kraus)
    assert roundtrip(transfer).equals(transfer)
    stack = TransferSet.from_operators([transfer, transfer.compose(transfer)])
    clone = roundtrip(stack)
    assert len(clone) == len(stack)
    assert all(a.equals(b) for a, b in zip(clone.operators(), stack.operators()))
