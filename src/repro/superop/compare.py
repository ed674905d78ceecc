"""Comparison utilities on super-operators and sets of super-operators.

The denotational semantics of a nondeterministic program is a *set* of
super-operators; these helpers implement equality and the CPO order on
individual maps (Lemma 3.1) and the induced comparisons on finite sets, which
are used by the semantic model checker and the tests of Lemma 3.2.

The set-level functions reduce each
:class:`~repro.superop.kraus.SuperOperator` once to a flattened Choi-entry
*signature* (``d⁴`` complex numbers, one BLAS matrix product per map).
Duplicate detection and subset checks then compare signatures with
:func:`row_matches`, which computes each candidate's tolerance bound once,
stops at the first matching row, and rejects most mismatching rows after their
first block of entries — instead of rebuilding a pair of Choi matrices for
every one of the ``O(n²)`` candidate pairs, and without stacking or copying
the signatures.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..linalg.constants import ATOL, ORDER_ATOL
from ..telemetry.tracing import span

__all__ = [
    "superoperator_equal",
    "superoperator_precedes",
    "set_equal",
    "set_subset",
    "lub_of_chain",
    "deduplicate",
    "row_matches",
]

#: Relative tolerance matching ``np.allclose``, used by the signature comparisons.
_RTOL = 1e-5

#: Entries compared per step in :func:`row_matches`; a row that differs early
#: is rejected after one block instead of after a full ``d⁴`` pass.
_BLOCK = 1 << 13


def _signature(channel) -> np.ndarray:
    """Return the flattened Choi matrix of ``channel``."""
    return np.asarray(channel.choi(), dtype=complex).reshape(-1)


def row_matches(rows: Iterable[np.ndarray], candidate: np.ndarray, atol: float) -> Iterator[bool]:
    """Yield, row by row, whether each of ``rows`` equals ``candidate`` numerically.

    The answers are exactly those of
    ``np.isclose(np.stack(rows), candidate, rtol=1e-5, atol=atol).all(axis=1)``,
    but no stack is built.  Rows are checked lazily, so
    ``any(row_matches(...))`` stops at the first match, and block by block, so
    a mismatch is usually settled by a row's first block.  The bound
    ``atol + rtol·|candidate|`` is computed once per block, on first use.
    Blocks where the candidate has a non-finite entry, and every block when
    ``atol`` lies outside ``[0, ∞)``, go through ``np.isclose`` itself, which
    owns those special cases.
    """
    candidate = np.asarray(candidate).reshape(-1)
    candidate = candidate.astype(np.result_type(candidate, 1.0), copy=False)
    if not 0.0 <= atol < np.inf:
        for row in rows:
            yield bool(np.isclose(row, candidate, rtol=_RTOL, atol=atol).all())
        return
    # bounds[n] is block n's bound, or None where that block of the candidate
    # is not all finite.  With a finite candidate entry and a finite atol ≥ 0
    # the bound is finite and non-negative, so isclose's ``& isfinite(y)`` and
    # ``| (x == y)`` terms are implied by ``|x − y| ≤ bound`` alone.
    bounds: List[Optional[np.ndarray]] = []

    def block_close(row: np.ndarray, start: int) -> bool:
        target = candidate[start:start + _BLOCK]
        if len(bounds) * _BLOCK == start:
            bound = atol + _RTOL * np.abs(target)
            bounds.append(bound if np.isfinite(bound).all() else None)
        bound = bounds[start // _BLOCK]
        if bound is None:
            return bool(np.isclose(row[start:start + _BLOCK], target, rtol=_RTOL, atol=atol).all())
        return bool((np.abs(row[start:start + _BLOCK] - target) <= bound).all())

    for row in rows:
        row = np.asarray(row).reshape(-1)
        yield all(block_close(row, start) for start in range(0, candidate.size, _BLOCK))


def superoperator_equal(a, b, atol: float = ATOL) -> bool:
    """Return ``True`` when the two maps agree (Choi matrices coincide)."""
    return a.equals(b, atol=atol)


def superoperator_precedes(a, b, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when ``a ⪯ b``, i.e. ``b − a`` is completely positive."""
    return a.precedes(b, atol=atol)


def _mixed_dimensions(maps: Sequence) -> bool:
    return len({channel.dimension for channel in maps}) > 1


def deduplicate(maps: Iterable, atol: float = ATOL) -> list:
    """Return the input maps with (numerical) duplicates removed, preserving order.

    Each map's Choi signature is computed exactly once; every candidate is
    then compared against the previously kept signatures with
    :func:`row_matches`, stopping at the first match.
    """
    maps = list(maps)
    if len(maps) <= 1:
        return maps
    with span("deduplicate", region="compare", set_size=len(maps)):
        if _mixed_dimensions(maps):
            # Mixed dimensions cannot share a signature stack; fall back to pairwise.
            unique: List = []
            for candidate in maps:
                if not any(candidate.equals(existing, atol=atol) for existing in unique):
                    unique.append(candidate)
            return unique
        kept: List[np.ndarray] = []
        unique = []
        for channel in maps:
            signature = _signature(channel)
            if not any(row_matches(kept, signature, atol)):
                kept.append(signature)
                unique.append(channel)
        return unique


def set_subset(smaller: Iterable, larger: Iterable, atol: float = ATOL) -> bool:
    """Return ``True`` when every map in ``smaller`` also occurs in ``larger``."""
    smaller = list(smaller)
    larger = list(larger)
    if not smaller:
        return True
    if not larger:
        return False
    with span("set-subset", region="compare", smaller=len(smaller), larger=len(larger)):
        return _set_subset_impl(smaller, larger, atol)


def _set_subset_impl(smaller: List, larger: List, atol: float) -> bool:
    """The unspanned body of :func:`set_subset`."""
    if _mixed_dimensions(smaller) or _mixed_dimensions(larger):
        # Mixed dimensions cannot share a signature stack; fall back to pairwise
        # (equals already returns False across dimensions).
        return all(
            any(candidate.equals(existing, atol=atol) for existing in larger)
            for candidate in smaller
        )
    if smaller[0].dimension != larger[0].dimension:
        return False
    larger_signatures = [_signature(channel) for channel in larger]
    return all(
        any(row_matches(larger_signatures, _signature(candidate), atol)) for candidate in smaller
    )


def set_equal(a: Iterable, b: Iterable, atol: float = ATOL) -> bool:
    """Return ``True`` when the two sets of maps are equal up to numerical tolerance."""
    a = list(a)
    b = list(b)
    return set_subset(a, b, atol=atol) and set_subset(b, a, atol=atol)


def lub_of_chain(chain: Sequence, atol: float = 1e-6) -> object:
    """Return the last element of a ⪯-chain, checking that it is indeed non-decreasing.

    The least upper bound of a finite prefix of a non-decreasing chain is its
    last element; this helper is used when truncating the while-loop fixpoint
    (Eq. (1) of the paper) to finitely many iterations.
    """
    if not chain:
        raise ValueError("lub_of_chain requires a non-empty chain")
    for earlier, later in zip(chain, chain[1:]):
        if not earlier.precedes(later, atol=atol):
            raise ValueError("sequence is not a ⪯-chain")
    return chain[-1]


def convergence_gap(chain: Sequence) -> float:
    """Return the trace-norm gap between the last two elements of a chain.

    Used to decide when the truncated loop semantics has numerically converged.
    """
    if len(chain) < 2:
        return float("inf")
    difference = chain[-1].choi() - chain[-2].choi()
    singular_values = np.linalg.svd(difference, compute_uv=False)
    return float(np.sum(singular_values))
