"""Liouville / transfer-matrix representation of super-operators.

This is the third faithful representation of a completely positive map next to
the Kraus form (:mod:`repro.superop.kraus`) and the Choi matrix
(:mod:`repro.superop.choi`), and it is the *performance* representation:

* a map ``E`` on a ``d``-dimensional space is stored as the single dense
  ``d² × d²`` matrix ``T(E) = Σ_i E_i ⊗ conj(E_i)`` acting on row-vectorised
  operators, so ``vec(E(ρ)) = T(E) · vec(ρ)``;
* composition is one matrix product: ``T(E ∘ F) = T(E) · T(F)``;
* the adjoint action on predicates is a conjugate-transpose product:
  ``vec(E†(M)) = T(E)† · vec(M)``;
* equality of maps is a direct entrywise comparison of transfer matrices (the
  representation is faithful), with no eigendecompositions involved;
* a *set* of maps (the denotation of a nondeterministic program) is stored as
  one stacked 3-D array and pushed through compositions with ``np.einsum``.

The transfer matrix is related to the (row-stacking) Choi matrix by the
*reshuffle* involution ``T[(a,b),(r,c)] = C[(a,r),(b,c)]``, so conversions in
either direction are a single transpose — lossless and cheap.  The Choi
detour is still needed for the CPO order ``⪯`` (positivity is a spectral
property) and for recovering a minimal Kraus decomposition.

When does each representation win?  Kraus wins for maps with few Kraus
operators applied to single states (cost ``k·d³``), and its comparisons cost
one ``O(k·d⁴)`` BLAS product to build the Choi matrix.  The transfer matrix
costs ``d⁶`` per composition, independent of the Kraus count (which otherwise
grows multiplicatively under ``Seq`` and linearly along loop chains, until
``DenotationOptions.simplify_threshold`` re-canonicalises it); the Choi matrix
wins for order and positivity questions.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, SuperOperatorError
from ..hashing import tolerance_safe_hash
from ..linalg.constants import ATOL, ORDER_ATOL
from ..linalg.operators import dagger, is_positive
from .choi import choi_matrix, is_tni_choi, kraus_from_choi
from .compare import row_matches
from .kraus import SuperOperator

__all__ = [
    "transfer_matrix",
    "transfer_from_choi",
    "choi_from_transfer",
    "kraus_from_transfer",
    "TransferSuperOperator",
    "TransferSet",
]


# ---------------------------------------------------------------------------
# Conversions between the three representations
# ---------------------------------------------------------------------------


def transfer_matrix(kraus_operators: Iterable[np.ndarray]) -> np.ndarray:
    """Return ``T(E) = Σ_i E_i ⊗ conj(E_i)`` for a Kraus decomposition.

    With row-stacking vectorisation ``vec(AXB) = (A ⊗ Bᵀ)·vec(X)``, so the
    returned matrix satisfies ``vec(Σ_i E_i ρ E_i†) = T · vec(ρ)``.  It is
    built as the reshuffled Choi matrix, so the ``k`` Kronecker products run
    as the one BLAS product of :func:`~repro.superop.choi.choi_matrix`.
    """
    kraus = [np.asarray(operator, dtype=complex) for operator in kraus_operators]
    if not kraus:
        raise SuperOperatorError("a transfer matrix needs at least one Kraus operator")
    return _reshuffle(choi_matrix(kraus))


def _reshuffle(matrix: np.ndarray) -> np.ndarray:
    """Apply the involution exchanging transfer and Choi matrices.

    Both conventions index the same tensor ``E(|r⟩⟨c|)[a, b]``; the transfer
    matrix groups indices as ``(a,b),(r,c)`` and the Choi matrix as
    ``(a,r),(b,c)``, so swapping the two middle tensor axes maps one to the
    other (in either direction).
    """
    matrix = np.asarray(matrix, dtype=complex)
    side = matrix.shape[0]
    dimension = int(round(np.sqrt(side)))
    if dimension * dimension != side or matrix.shape != (side, side):
        raise DimensionMismatchError(
            f"expected a d²×d² matrix with square side, got shape {matrix.shape}"
        )
    tensor = matrix.reshape(dimension, dimension, dimension, dimension)
    return tensor.transpose(0, 2, 1, 3).reshape(side, side)


def transfer_from_choi(choi: np.ndarray) -> np.ndarray:
    """Return the transfer matrix of the map with (row-stacking) Choi matrix ``choi``."""
    return _reshuffle(choi)


def choi_from_transfer(transfer: np.ndarray) -> np.ndarray:
    """Return the (row-stacking) Choi matrix of the map with transfer matrix ``transfer``."""
    return _reshuffle(transfer)


def kraus_from_transfer(transfer: np.ndarray, atol: float = 1e-10) -> List[np.ndarray]:
    """Recover a minimal Kraus decomposition from a transfer matrix."""
    return kraus_from_choi(choi_from_transfer(transfer), atol=atol)


# ---------------------------------------------------------------------------
# Single maps
# ---------------------------------------------------------------------------


class TransferSuperOperator:
    """A completely positive map represented by its ``d²×d²`` transfer matrix.

    The class mirrors the algebra of :class:`~repro.superop.kraus.SuperOperator`
    (application, adjoint application, composition, addition, scaling, tensor
    products, the CPO order ``⪯``), but every binary operation is a single
    dense matrix operation regardless of how many Kraus operators the map
    would need.  Instances interoperate with :class:`SuperOperator` wherever
    only this shared protocol is used (e.g. the set comparisons of
    :mod:`repro.superop.compare` and the wp/wlp transformers).
    """

    __slots__ = ("_matrix", "_dimension")

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        side = matrix.shape[0] if matrix.ndim == 2 else -1
        dimension = int(round(np.sqrt(side))) if side > 0 else -1
        if matrix.ndim != 2 or matrix.shape != (side, side) or dimension * dimension != side:
            raise DimensionMismatchError(
                f"a transfer matrix must be d²×d² for some d, got shape {matrix.shape}"
            )
        self._matrix = matrix
        self._dimension = dimension
        if validate and not self.is_trace_nonincreasing():
            raise SuperOperatorError("super-operator is not trace non-increasing")

    # ------------------------------------------------------------ constructors
    @classmethod
    def identity(cls, dimension: int) -> "TransferSuperOperator":
        """Return the identity super-operator on a ``dimension``-dimensional space."""
        return cls(np.eye(dimension * dimension, dtype=complex), validate=False)

    @classmethod
    def zero(cls, dimension: int) -> "TransferSuperOperator":
        """Return the zero super-operator (the semantics of ``abort``)."""
        return cls(np.zeros((dimension * dimension, dimension * dimension), dtype=complex), validate=False)

    @classmethod
    def from_kraus(cls, kraus_operators: Iterable[np.ndarray]) -> "TransferSuperOperator":
        """Build the transfer representation of a Kraus decomposition."""
        return cls(transfer_matrix(kraus_operators), validate=False)

    @classmethod
    def from_superoperator(cls, channel: SuperOperator) -> "TransferSuperOperator":
        """Convert a Kraus-form :class:`SuperOperator` (losslessly)."""
        return cls.from_kraus(channel.kraus_operators)

    @classmethod
    def from_choi(cls, choi: np.ndarray) -> "TransferSuperOperator":
        """Convert a (row-stacking) Choi matrix (losslessly)."""
        return cls(transfer_from_choi(choi), validate=False)

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "TransferSuperOperator":
        """Return the unitary super-operator ``ρ ↦ UρU†``."""
        unitary = np.asarray(unitary, dtype=complex)
        return cls(np.kron(unitary, np.conjugate(unitary)), validate=False)

    # ------------------------------------------------------------- properties
    @property
    def matrix(self) -> np.ndarray:
        """The transfer matrix (treat as read-only)."""
        return self._matrix

    @property
    def dimension(self) -> int:
        """Dimension of the underlying Hilbert space."""
        return self._dimension

    def choi(self) -> np.ndarray:
        """Return the (unnormalised, row-stacking) Choi matrix — one reshuffle."""
        return choi_from_transfer(self._matrix)

    def kraus(self, atol: float = 1e-10) -> List[np.ndarray]:
        """Return a minimal Kraus decomposition of the map."""
        return kraus_from_transfer(self._matrix, atol=atol)

    def to_superoperator(self, atol: float = 1e-10) -> SuperOperator:
        """Convert back to the Kraus-form :class:`SuperOperator`."""
        return SuperOperator(self.kraus(atol=atol), validate=False)

    def is_trace_preserving(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when the map preserves the trace up to ``atol``."""
        return bool(np.allclose(self.kraus_gram(), np.eye(self._dimension), atol=atol))

    def is_trace_nonincreasing(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when the map is trace non-increasing up to ``atol``."""
        return is_tni_choi(self.choi(), atol=atol)

    def kraus_gram(self) -> np.ndarray:
        """Return ``Σ_i E_i†E_i = E†(I)`` without leaving the transfer picture."""
        return self.apply_adjoint(np.eye(self._dimension, dtype=complex))

    def probability_bound(self) -> float:
        """Return ``λ_max(E†(I))`` — the maximal success probability over inputs."""
        gram = self.kraus_gram()
        eigenvalues = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
        return float(max(eigenvalues.max(), 0.0))

    # -------------------------------------------------------------- application
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the super-operator to a (partial) density operator: one matvec."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self._dimension, self._dimension):
            raise DimensionMismatchError(
                f"state of shape {rho.shape} incompatible with dimension {self._dimension}"
            )
        return (self._matrix @ rho.reshape(-1)).reshape(self._dimension, self._dimension)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def apply_adjoint(self, observable: np.ndarray) -> np.ndarray:
        """Apply ``E†`` to a predicate/observable: a conjugate-transpose matvec."""
        observable = np.asarray(observable, dtype=complex)
        if observable.shape != (self._dimension, self._dimension):
            raise DimensionMismatchError(
                f"observable of shape {observable.shape} incompatible with dimension {self._dimension}"
            )
        return (dagger(self._matrix) @ observable.reshape(-1)).reshape(
            self._dimension, self._dimension
        )

    def adjoint(self) -> "TransferSuperOperator":
        """Return ``E†`` as a transfer-matrix super-operator."""
        return TransferSuperOperator(dagger(self._matrix), validate=False)

    # ------------------------------------------------------------------ algebra
    def compose(self, other: "TransferSuperOperator") -> "TransferSuperOperator":
        """Return ``self ∘ other`` (first ``other``, then ``self``) — one matmul."""
        self._check_dimension(other)
        return TransferSuperOperator(self._matrix @ other._matrix, validate=False)

    def then(self, other: "TransferSuperOperator") -> "TransferSuperOperator":
        """Return ``other ∘ self`` (first ``self``, then ``other``)."""
        return other.compose(self)

    def __matmul__(self, other: "TransferSuperOperator") -> "TransferSuperOperator":
        return self.compose(other)

    def __add__(self, other: "TransferSuperOperator") -> "TransferSuperOperator":
        """Return the pointwise sum (transfer matrices added entrywise)."""
        self._check_dimension(other)
        return TransferSuperOperator(self._matrix + other._matrix, validate=False)

    def __mul__(self, scalar: float) -> "TransferSuperOperator":
        if scalar < -ATOL:
            raise SuperOperatorError("super-operators can only be scaled by non-negative factors")
        return TransferSuperOperator(max(scalar, 0.0) * self._matrix, validate=False)

    __rmul__ = __mul__

    def tensor(self, other: "TransferSuperOperator") -> "TransferSuperOperator":
        """Return ``self ⊗ other``.

        The transfer matrix of a tensor-product map is *not* the plain
        Kronecker product of the factors (row-vectorisation interleaves the
        subsystem indices); the required permutation swaps the two middle
        axes of each of the row and column index groups.
        """
        a, b = self._dimension, other._dimension
        product = np.kron(self._matrix, other._matrix)
        tensor = product.reshape(a, a, b, b, a, a, b, b)
        tensor = tensor.transpose(0, 2, 1, 3, 4, 6, 5, 7)
        side = (a * b) ** 2
        return TransferSuperOperator(tensor.reshape(side, side), validate=False)

    def embed(self, qubits: Sequence[str], register) -> "TransferSuperOperator":
        """Return the cylinder extension of the map onto a full :class:`QubitRegister`."""
        return TransferSuperOperator.from_kraus(
            [register.embed(operator, qubits) for operator in self.kraus()]
        )

    # ----------------------------------------------------------------- ordering
    def equals(self, other, atol: float = ATOL) -> bool:
        """Return ``True`` when both maps are equal.

        The transfer matrix is a faithful linear representation, so equality
        is a direct entrywise comparison — no spectral work.  Kraus-form
        :class:`SuperOperator` operands are accepted as well (their Choi
        matrix holds the same entries up to the reshuffle permutation).
        """
        other_matrix = _transfer_of(other)
        if other_matrix is None or self._dimension != other.dimension:
            return False
        return bool(np.allclose(self._matrix, other_matrix, atol=atol))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TransferSuperOperator, SuperOperator)):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:
        # Tolerance-based equality admits no payload-derived hash; hash only
        # the exact invariants, shared across all three representations.
        return tolerance_safe_hash("superop", self._dimension)

    def precedes(self, other, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``self ⪯ other`` in the CPO of super-operators.

        By Lemma 3.1 this holds iff the difference of Choi matrices is
        positive semidefinite; positivity is the one question the transfer
        picture cannot answer entrywise, so this goes through one reshuffle.
        """
        other_matrix = _transfer_of(other)
        if other_matrix is None or self._dimension != other.dimension:
            return False
        difference = choi_from_transfer(other_matrix - self._matrix)
        return is_positive(difference, atol=atol)

    def _check_dimension(self, other: "TransferSuperOperator") -> None:
        if self._dimension != other.dimension:
            raise DimensionMismatchError(
                f"super-operators act on different dimensions: {self._dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        return f"TransferSuperOperator(dim={self._dimension})"


def _transfer_of(channel) -> np.ndarray | None:
    """Return the transfer matrix of either representation (``None`` if foreign)."""
    if isinstance(channel, TransferSuperOperator):
        return channel.matrix
    if isinstance(channel, SuperOperator):
        return transfer_matrix(channel.kraus_operators)
    return None


# ---------------------------------------------------------------------------
# Batched sets of maps
# ---------------------------------------------------------------------------


class TransferSet:
    """A finite set of super-operators stored as one stacked ``(n, d², d²)`` array.

    This is the batched workhorse of the transfer-backend denotational
    semantics: sequential composition of two denotation sets is a single
    ``np.einsum`` producing all pairwise products, measurement branches are a
    broadcast sum, and deduplication compares flattened rows of the stack
    instead of performing pairwise Choi constructions.
    """

    __slots__ = ("_stack", "_dimension")

    def __init__(self, stack: np.ndarray, dimension: int | None = None):
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise DimensionMismatchError(
                f"a transfer set needs shape (n, d², d²), got {stack.shape}"
            )
        side = stack.shape[1]
        inferred = int(round(np.sqrt(side)))
        if inferred * inferred != side:
            raise DimensionMismatchError(f"transfer side {side} is not a perfect square")
        if dimension is not None and dimension != inferred:
            raise DimensionMismatchError(
                f"declared dimension {dimension} does not match stack side {side}"
            )
        self._stack = stack
        self._dimension = inferred

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_operators(cls, operators: Sequence[TransferSuperOperator]) -> "TransferSet":
        """Stack a non-empty list of :class:`TransferSuperOperator` into one set."""
        if not operators:
            raise SuperOperatorError("a transfer set needs at least one element")
        return cls(np.stack([operator.matrix for operator in operators]))

    @classmethod
    def singleton(cls, operator: TransferSuperOperator) -> "TransferSet":
        """Return the one-element set holding ``operator``."""
        return cls(operator.matrix[np.newaxis, :, :])

    # ------------------------------------------------------------- accessors
    @property
    def stack(self) -> np.ndarray:
        """The raw ``(n, d², d²)`` stack (treat as read-only)."""
        return self._stack

    @property
    def dimension(self) -> int:
        """Dimension of the underlying Hilbert space."""
        return self._dimension

    def __len__(self) -> int:
        return self._stack.shape[0]

    def __iter__(self):
        for matrix in self._stack:
            yield TransferSuperOperator(matrix, validate=False)

    def __getitem__(self, index: int) -> TransferSuperOperator:
        return TransferSuperOperator(self._stack[index], validate=False)

    def operators(self) -> List[TransferSuperOperator]:
        """Materialise the set as a list of :class:`TransferSuperOperator`."""
        return list(self)

    # ----------------------------------------------------------------- algebra
    def compose_pairwise(self, earlier: "TransferSet") -> "TransferSet":
        """Return ``{F ∘ G : F ∈ self, G ∈ earlier}`` as one batched einsum.

        This is the lifted ``Seq`` composition: every later map composed with
        every earlier map, ``n·m`` products computed in a single call.

        The result is *earlier*-major (all products of ``earlier[0]`` first),
        matching the Kraus backend's serial ``Seq`` enumeration exactly.  The
        ordering is semantic, not cosmetic: denotation-set positions are what
        sampled :class:`~repro.semantics.schedulers.RandomScheduler` indices
        select, so the backends must enumerate identically or their loop
        semantics diverge (found by the cross-representation fuzzer).
        """
        if self._dimension != earlier._dimension:
            raise DimensionMismatchError(
                f"transfer sets act on different dimensions: {self._dimension} vs {earlier._dimension}"
            )
        products = np.einsum("aij,bjk->baik", self._stack, earlier._stack)
        side = self._stack.shape[1]
        return TransferSet(products.reshape(-1, side, side))

    def then_each(self, later: TransferSuperOperator) -> "TransferSet":
        """Return ``{later ∘ F : F ∈ self}`` — one batched matmul."""
        return TransferSet(np.einsum("ij,ajk->aik", later.matrix, self._stack))

    def after_each(self, earlier: TransferSuperOperator) -> "TransferSet":
        """Return ``{F ∘ earlier : F ∈ self}`` — one batched matmul."""
        return TransferSet(np.einsum("aij,jk->aik", self._stack, earlier.matrix))

    def branch_sum_pairwise(self, other: "TransferSet") -> "TransferSet":
        """Return ``{F + G : F ∈ self, G ∈ other}`` via broadcasting.

        Used for the lifted conditional ``[[if]] = [[S0]]∘P⁰ + [[S1]]∘P¹``
        where the scheduler resolves each branch independently.
        """
        combined = self._stack[:, np.newaxis, :, :] + other._stack[np.newaxis, :, :, :]
        side = self._stack.shape[1]
        return TransferSet(combined.reshape(-1, side, side))

    def concatenate(self, other: "TransferSet") -> "TransferSet":
        """Return the set union (as a multiset; use :meth:`deduplicated` after)."""
        return TransferSet(np.concatenate([self._stack, other._stack], axis=0))

    def apply_all(self, rho: np.ndarray) -> np.ndarray:
        """Return the stack ``{E(ρ) : E ∈ self}`` as an ``(n, d, d)`` array."""
        vectorised = np.asarray(rho, dtype=complex).reshape(-1)
        images = np.einsum("aij,j->ai", self._stack, vectorised)
        return images.reshape(-1, self._dimension, self._dimension)

    # --------------------------------------------------------------- comparison
    def deduplicated(self, atol: float = ATOL) -> "TransferSet":
        """Remove numerically duplicate maps, preserving first-occurrence order.

        Faithfulness of the transfer representation turns duplicate detection
        into row comparisons on the flattened stack, done by the same
        :func:`~repro.superop.compare.row_matches` as the set-level
        comparisons, so both dedup paths (in-recursion and post-hoc) agree on
        set sizes.
        """
        kept: List[np.ndarray] = []
        keep: List[int] = []
        for index, row in enumerate(self._stack.reshape(len(self), -1)):
            if not any(row_matches(kept, row, atol)):
                kept.append(row)
                keep.append(index)
        if len(keep) == len(self):
            return self
        return TransferSet(self._stack[keep])

    def __repr__(self) -> str:
        return f"TransferSet(dim={self._dimension}, maps={len(self)})"
