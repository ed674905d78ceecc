"""Unit tests for the Choi-representation helpers."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, LinalgError
from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_kraus_operators
from repro.superop.choi import (
    choi_from_apply,
    choi_matrix,
    choi_precedes,
    is_cp_choi,
    is_tni_choi,
    is_tp_choi,
    kraus_from_choi,
)
from repro.superop.kraus import SuperOperator


class TestChoiMatrix:
    def test_identity_channel_choi_is_maximally_entangled(self):
        choi = choi_matrix([I2])
        assert np.trace(choi).real == pytest.approx(2.0)
        assert is_cp_choi(choi)
        assert is_tp_choi(choi)

    def test_choi_agrees_with_extensional_construction(self):
        kraus = [P0, X @ P1]
        channel = SuperOperator(kraus)
        by_kraus = choi_matrix(kraus)
        by_apply = choi_from_apply(channel.apply, 2)
        assert operators_close(by_kraus, by_apply)

    def test_choi_of_random_channel(self):
        kraus = random_kraus_operators(4, count=3, seed=0)
        choi = choi_matrix(kraus)
        assert is_cp_choi(choi)
        assert is_tp_choi(choi)

    @pytest.mark.parametrize("count", [1, 4, 80])
    @pytest.mark.parametrize("dimension", [2, 8, 16])
    def test_choi_is_the_rank_one_sum(self, dimension, count):
        """The one-product kernel equals ``Σ_i vec(E_i) vec(E_i)†`` summed term by term."""
        kraus = random_kraus_operators(dimension, count=count, seed=100 * dimension + count)
        reference = np.zeros((dimension * dimension, dimension * dimension), dtype=complex)
        for operator in kraus:
            vectorised = operator.reshape(-1)
            reference += np.outer(vectorised, vectorised.conj())
        np.testing.assert_allclose(choi_matrix(kraus), reference, rtol=0, atol=1e-10)

    def test_choi_requires_kraus(self):
        with pytest.raises(LinalgError):
            choi_matrix([])

    @pytest.mark.parametrize(
        "kraus",
        [
            [np.eye(2), np.eye(4)],
            [np.eye(2), np.ones((2, 3))],
            [np.ones((2, 3))],
            [np.ones(4)],
        ],
        ids=["mixed-dimensions", "mixed-shapes", "non-square", "one-dimensional"],
    )
    def test_choi_rejects_mismatched_or_non_square_kraus(self, kraus):
        with pytest.raises(DimensionMismatchError):
            choi_matrix(kraus)


class TestKrausRecovery:
    def test_roundtrip_through_choi(self):
        original = SuperOperator([P0, X @ P1])
        recovered = SuperOperator(kraus_from_choi(original.choi()), validate=False)
        assert original.equals(recovered)

    def test_zero_choi_gives_zero_channel(self):
        kraus = kraus_from_choi(np.zeros((4, 4)))
        assert len(kraus) == 1
        assert operators_close(kraus[0], np.zeros((2, 2)))

    def test_invalid_choi_side(self):
        with pytest.raises(LinalgError):
            kraus_from_choi(np.zeros((3, 3)))
        with pytest.raises(LinalgError):
            kraus_from_choi(np.eye(4)[:, :3])
        with pytest.raises(LinalgError):
            kraus_from_choi(np.zeros(4))


class TestTraceConditions:
    def test_trace_nonincreasing_but_not_preserving(self):
        choi = choi_matrix([P0])
        assert is_tni_choi(choi)
        assert not is_tp_choi(choi)

    def test_trace_increasing_detected(self):
        choi = choi_matrix([np.sqrt(2) * I2])
        assert not is_tni_choi(choi)

    def test_non_cp_map_detected(self):
        # The transpose map is positive but not completely positive.
        transpose_choi = choi_from_apply(lambda m: m.T, 2)
        assert not is_cp_choi(transpose_choi)


class TestChoiOrder:
    def test_precedes_matches_superoperator_order(self):
        smaller = SuperOperator([P0])
        larger = SuperOperator([P0, P1])
        assert choi_precedes(smaller.choi(), larger.choi())
        assert not choi_precedes(larger.choi(), smaller.choi())
