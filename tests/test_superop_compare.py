"""Unit tests for set-level comparisons of super-operators (Lemma 3.1 machinery)."""

import numpy as np
import pytest

from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.random import random_density_operator
from repro.linalg.operators import loewner_le
from repro.superop.compare import (
    convergence_gap,
    deduplicate,
    lub_of_chain,
    row_matches,
    set_equal,
    set_subset,
    superoperator_equal,
    superoperator_precedes,
)
from repro.superop.kraus import SuperOperator


class TestElementComparisons:
    def test_equal_maps_different_decompositions(self):
        dephase_a = SuperOperator([P0, P1])
        dephase_b = SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)])
        assert superoperator_equal(dephase_a, dephase_b)

    def test_precedes_implies_loewner_on_outputs(self):
        """Lemma 3.1: E ⪯ F implies E(ρ) ⊑ F(ρ) for every state."""
        smaller = SuperOperator([P0])
        larger = SuperOperator([P0, P1])
        assert superoperator_precedes(smaller, larger)
        for seed in range(5):
            rho = random_density_operator(2, seed=seed)
            assert loewner_le(smaller.apply(rho), larger.apply(rho))

    def test_precedes_fails_for_incomparable_maps(self):
        a = SuperOperator([P0])
        b = SuperOperator([P1])
        assert not superoperator_precedes(a, b)
        assert not superoperator_precedes(b, a)


class TestSetComparisons:
    def test_deduplicate(self):
        maps = [SuperOperator([P0, P1]), SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]), SuperOperator.from_unitary(X)]
        unique = deduplicate(maps)
        assert len(unique) == 2

    def test_subset_and_equality(self):
        identity = SuperOperator.identity(2)
        hadamard = SuperOperator.from_unitary(H)
        flip = SuperOperator.from_unitary(X)
        assert set_subset([identity], [identity, hadamard])
        assert not set_subset([flip], [identity, hadamard])
        assert set_equal([identity, hadamard], [hadamard, identity])
        assert not set_equal([identity], [identity, hadamard])


class TestChains:
    def test_lub_of_valid_chain(self):
        chain = [
            SuperOperator.scalar(0.25, 2),
            SuperOperator.scalar(0.5, 2),
            SuperOperator.scalar(0.75, 2),
        ]
        assert lub_of_chain(chain).equals(chain[-1])

    def test_lub_rejects_non_chain(self):
        with pytest.raises(ValueError):
            lub_of_chain([SuperOperator.scalar(0.5, 2), SuperOperator.scalar(0.25, 2)])
        with pytest.raises(ValueError):
            lub_of_chain([])

    def test_convergence_gap(self):
        chain = [SuperOperator.scalar(0.5, 2), SuperOperator.scalar(0.5, 2)]
        assert convergence_gap(chain) == pytest.approx(0.0, abs=1e-12)
        assert convergence_gap([SuperOperator.identity(2)]) == float("inf")
        widening = [SuperOperator.scalar(0.0, 2), SuperOperator.scalar(1.0, 2)]
        assert convergence_gap(widening) > 0.5


#: Relative tolerance of every signature comparison (``np.allclose``'s default).
RTOL = 1e-5

#: Maps on a 10-dimensional space: signatures have 10⁴ = 10000 entries, so the
#: matcher walks more than one block and the last one is partial.
DIMENSION = 10
SIZE = DIMENSION ** 4

#: Where the probe rows differ from the candidate: first, middle and last entry.
POSITIONS = (0, SIZE // 2, SIZE - 1)


class _SignatureMap:
    """A stand-in map whose Choi matrix is an arbitrary (possibly non-finite) array."""

    def __init__(self, entries):
        self.dimension = DIMENSION
        self._choi = entries.reshape(DIMENSION * DIMENSION, DIMENSION * DIMENSION)

    def choi(self):
        return self._choi


def _candidate(kind):
    """A candidate signature; entry 0 is zero so its bound is exactly ``atol``."""
    rng = np.random.default_rng(31)
    candidate = rng.normal(size=SIZE) + 1j * rng.normal(size=SIZE)
    candidate[0] = 0.0
    if kind == "inf":
        candidate[SIZE // 2] = np.inf
    elif kind == "imag-inf":
        candidate[1] = complex(0.5, -np.inf)
    elif kind == "nan":
        candidate[SIZE - 1] = np.nan
    return candidate


def _probe_rows(candidate, atol):
    """Rows on both sides of the tolerance boundary around ``candidate``, and non-finite rows."""

    def changed(position, value):
        row = candidate.copy()
        row[position] = value
        return row

    rows = [candidate.copy()]
    with np.errstate(invalid="ignore"):  # inf − inf in the probes of non-finite candidates
        bound = atol + RTOL * np.abs(candidate)
        for position in POSITIONS:
            entry, edge = candidate[position], bound[position]
            rows += [
                changed(position, entry + edge),
                changed(position, entry - edge),
                changed(position, entry + 1j * edge),
                changed(position, complex(np.nextafter(entry.real + edge, np.inf), entry.imag)),
                changed(position, entry + 2 * edge + 1e-3),
                changed(position, np.nan),
                changed(position, np.inf),
                changed(position, -np.inf),
                changed(position, complex(entry.real, np.inf)),
            ]
    rows += [np.full(SIZE, value, dtype=complex) for value in (np.nan, np.inf, -np.inf)]
    return rows


def _isclose_rows(rows, candidate, atol):
    return np.isclose(np.stack(rows), candidate, rtol=RTOL, atol=atol).all(axis=1)


def _isclose_dedup(rows, atol):
    """Indices kept by first-occurrence deduplication under the ``np.isclose`` rule."""
    kept = []
    for index, row in enumerate(rows):
        if not (kept and _isclose_rows([rows[k] for k in kept], row, atol).any()):
            kept.append(index)
    return kept


ATOLS = pytest.mark.parametrize("atol", [1e-8, 0.0, 1e-3, -1e-8])
CANDIDATE_KINDS = pytest.mark.parametrize("kind", ["finite", "inf", "imag-inf", "nan"])


class TestRowMatcher:
    """``row_matches`` and its three users decide exactly as ``np.isclose(...).all(axis=1)``."""

    @CANDIDATE_KINDS
    @ATOLS
    def test_row_matches_equals_isclose(self, kind, atol):
        candidate = _candidate(kind)
        rows = _probe_rows(candidate, atol)
        expected = _isclose_rows(rows, candidate, atol).tolist()
        assert list(row_matches(rows, candidate, atol)) == expected
        if kind == "finite" and atol >= 0:
            assert True in expected and False in expected

    @pytest.mark.parametrize("atol", [1e-8, 0.0])
    def test_boundary_is_inclusive_to_the_last_ulp(self, atol):
        candidate = _candidate("finite")
        at_bound = candidate.copy()
        at_bound[0] = atol
        above = candidate.copy()
        above[0] = np.nextafter(atol, np.inf)
        assert list(row_matches([at_bound, above], candidate, atol)) == [True, False]
        assert _isclose_rows([at_bound, above], candidate, atol).tolist() == [True, False]

    def test_lazy_rows_stop_at_the_first_match(self):
        candidate = _candidate("finite")
        pulled = []

        def rows():
            for row in (candidate + 1.0, candidate.copy(), candidate - 1.0):
                pulled.append(row)
                yield row

        assert any(row_matches(rows(), candidate, 1e-8))
        assert len(pulled) == 2
        assert not any(row_matches([], candidate, 1e-8))

    @CANDIDATE_KINDS
    @ATOLS
    def test_deduplicate_keeps_what_isclose_keeps(self, kind, atol):
        candidate = _candidate(kind)
        rows = _probe_rows(candidate, atol)
        rows = rows[::-1] + rows
        maps = [_SignatureMap(row) for row in rows]
        unique = deduplicate(maps, atol=atol)
        assert unique == [maps[index] for index in _isclose_dedup(rows, atol)]

    @CANDIDATE_KINDS
    @ATOLS
    def test_set_subset_agrees_with_isclose(self, kind, atol):
        candidate = _candidate(kind)
        rows = _probe_rows(candidate, atol)
        larger = rows[1::2]
        larger_maps = [_SignatureMap(row) for row in larger]
        verdicts = []
        for row in rows:
            expected = bool(_isclose_rows(larger, row, atol).any())
            assert set_subset([_SignatureMap(row)], larger_maps, atol=atol) == expected
            verdicts.append(expected)
        assert set_subset([_SignatureMap(row) for row in rows], larger_maps, atol=atol) == all(verdicts)
        if kind == "finite" and atol >= 0:
            assert True in verdicts and False in verdicts


    @CANDIDATE_KINDS
    @ATOLS
    def test_set_equal_agrees_with_isclose_both_ways(self, kind, atol):
        # ``np.isclose`` scales ``rtol`` by its second argument, so equality
        # must hold with each set taking that role in turn.
        candidate = _candidate(kind)
        rows = _probe_rows(candidate, atol)
        candidate_map = [_SignatureMap(candidate)]
        verdicts = []
        for row in rows:
            expected = bool(
                _isclose_rows([candidate], row, atol).all()
                and _isclose_rows([row], candidate, atol).all()
            )
            assert set_equal([_SignatureMap(row)], candidate_map, atol=atol) == expected
            verdicts.append(expected)
        maps = [_SignatureMap(row) for row in rows]
        self_match = all(_isclose_rows([row], row, atol).all() for row in rows)
        assert set_equal(maps, maps[::-1], atol=atol) == self_match
        if kind == "finite" and atol >= 0:
            assert True in verdicts and False in verdicts

def test_set_comparisons_tolerate_mixed_dimensions():
    small = SuperOperator.identity(2)
    large = SuperOperator.identity(4)
    assert set_subset([small], [small, large])
    assert set_subset([small, large], [large, small])
    assert not set_subset([small], [large])
    assert not set_equal([small], [large])
    assert len(deduplicate([small, large, small, large])) == 2
