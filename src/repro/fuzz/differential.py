"""Forward/backward duality oracle for generated programs.

Each program drawn by :mod:`repro.fuzz.generator` is resolved through the
standard front end (:func:`repro.assistant.verify.build_task`) and then run
once through two independent engines under the same schedulers:

* forwards, the denotation engine
  (:func:`repro.semantics.denotational.denotation`, whose loops follow the
  chain of :func:`~repro.semantics.denotational.loop_iterates`), and
* backwards, the wp and wlp transformers
  (:func:`repro.semantics.wp.weakest_precondition`,
  :func:`repro.semantics.wp.weakest_liberal_precondition`, whose loops follow
  the Fig. 5 sequences).

The duality cell checks the identities behind the paper's relative
completeness (Sec. 5): for the postcondition's predicates ``P``,

* ``wp.S.{P}  = {E†(P) : E ∈ [[S]]}`` and
* ``wlp.S.{P} = {E†(P) + I − E†(I) : E ∈ [[S]]}``,

as sets, up to ``OracleConfig.atol`` (``loop_atol`` for programs with loops).
Both engines run at ``convergence_tolerance=0``, so every loop is truncated
after exactly ``max_iterations`` body iterations on both sides and the
identities hold up to float error.  The denotation is computed without
deduplication, so it holds every explored scheduler's map; the transformers
still merge near-duplicate predicates, which the set comparison allows for.
Loop-free draws additionally check the prover's verification condition
(:meth:`repro.logic.prover.Prover.generate`) against the semantic wlp — the
relative-completeness equality of Sec. 5.

The process-wide result cache is cleared before the run, so it computes from
scratch instead of replaying entries that an earlier draw or the caller left
behind.

Any disagreement is reported as a :class:`Divergence` carrying the rendered
source and the copy-pasteable repro line
``python tools/fuzz.py --seed S --index I --shrink``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..assistant.verify import build_task
from ..cache import clear_result_cache
from ..language.names import OperatorEnvironment, default_environment
from ..linalg.constants import ATOL
from ..logic.formula import CorrectnessMode
from ..logic.prover import Prover
from ..predicates.assertion import QuantumAssertion
from ..semantics.denotational import DenotationOptions, denotation
from ..semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from .generator import FuzzProgram

__all__ = [
    "OracleConfig",
    "Divergence",
    "DifferentialReport",
    "ReplayProgram",
    "check_program",
    "run_differential",
    "repro_line",
]


@dataclass(frozen=True)
class ReplayProgram:
    """Adapter replaying promoted ``.nqpv`` regression text through the oracle.

    Promoted corpus entries under ``tests/regressions/`` store rendered
    source, not generator IR; this wraps the text in the minimal interface
    :func:`check_program` consumes (``source()``, ``contains_while()``,
    ``seed``, ``index``).
    """

    text: str
    seed: int
    index: int

    def source(self) -> str:
        """Return the stored program text verbatim."""
        return self.text

    def contains_while(self) -> bool:
        """Whether the stored program has a loop (selects the loop tolerance)."""
        return "while " in self.text


#: Relative tolerance of ``np.allclose``, with which the transformers merge
#: near-duplicate predicates.
_MERGED_RTOL = 1e-5


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and scope of one differential run.

    Attributes
    ----------
    atol:
        Agreement tolerance for loop-free programs (their denotations and
        transformers are exact, so disagreement beyond float error is a real
        bug).
    loop_atol:
        Agreement tolerance for programs containing while loops.  Both
        engines stop at the same depth, but a loop chain goes through up to
        ``max_iterations`` compositions and Kraus re-canonicalisations, which
        drop Choi eigenvalues below ``1e-10``; the largest such gap over
        ``generate_batch(2023, 200)`` at ``max_iterations=24`` is about
        ``3e-7``.
    max_iterations / sampled_schedulers:
        Forwarded to :class:`DenotationOptions` / :class:`WpOptions`;
        ``max_iterations`` defaults below the engine's 64 to keep a
        200-program sweep fast.
    check_prover:
        Whether to compare the prover's verification condition against the
        semantic wlp on loop-free draws.
    """

    atol: float = ATOL
    loop_atol: float = 1e-6
    max_iterations: int = 24
    sampled_schedulers: int = 2
    check_prover: bool = True


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement, self-contained enough to reproduce.

    ``kind`` is ``"wp"`` / ``"wlp"`` (the transformer differs from the dual of
    the denotation), ``"prover"`` (verification condition vs semantic wlp)
    or ``"error"`` (an engine raised).
    """

    seed: int
    index: int
    kind: str
    detail: str
    source: str

    @property
    def repro(self) -> str:
        """Return the copy-pasteable driver invocation reproducing this finding."""
        return repro_line(self.seed, self.index)

    def to_dict(self) -> Dict:
        """Return the JSON-serialisable form used by the driver's report."""
        return {
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "detail": self.detail,
            "repro": self.repro,
            "source": self.source,
        }


@dataclass
class DifferentialReport:
    """Aggregate outcome of a differential sweep over a batch of programs."""

    seed: int
    programs_checked: int = 0
    loop_free: int = 0
    with_loops: int = 0
    prover_checked: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Return ``True`` when the sweep found no divergence."""
        return not self.divergences

    def to_dict(self) -> Dict:
        """Return the JSON-serialisable form used by the driver's report."""
        return {
            "seed": self.seed,
            "programs_checked": self.programs_checked,
            "loop_free": self.loop_free,
            "with_loops": self.with_loops,
            "prover_checked": self.prover_checked,
            "divergence_count": len(self.divergences),
            "divergences": [divergence.to_dict() for divergence in self.divergences],
        }


def repro_line(seed: int, index: int) -> str:
    """Return the single-line driver invocation reproducing one batch member."""
    return f"python tools/fuzz.py --seed {seed} --index {index} --shrink"


def _matrices(assertion: QuantumAssertion) -> List[np.ndarray]:
    return [np.asarray(predicate.matrix) for predicate in assertion.predicates]


def _covered(
    mats_a: Sequence[np.ndarray], mats_b: Sequence[np.ndarray], atol: float, rtol: float
) -> bool:
    """Return whether every matrix of ``mats_a`` is ``np.allclose`` to one of ``mats_b``."""
    return all(any(np.allclose(ma, mb, atol=atol, rtol=rtol) for mb in mats_b) for ma in mats_a)


def _assertions_close(
    mats_a: Sequence[np.ndarray],
    mats_b: Sequence[np.ndarray],
    atol: float,
    merged_rtol: float = 0.0,
) -> bool:
    """Set-compare two predicate-matrix lists entrywise to ``atol``.

    Every matrix of ``mats_a`` must match one of ``mats_b`` exactly up to
    ``atol``.  The other way round, ``merged_rtol`` is added as the relative
    tolerance: the transformers keep one predicate of each group that
    ``np.allclose`` (relative tolerance ``1e-5``) cannot tell apart, so a
    member of ``mats_b`` may sit that far from the one kept in ``mats_a``.
    :meth:`QuantumAssertion.set_equal` compares at the fixed ``ORDER_ATOL``;
    the oracle needs the tolerance to follow :class:`OracleConfig`, so the
    mutual-inclusion check is redone here on the raw matrices.
    """
    return _covered(mats_a, mats_b, atol, 0.0) and _covered(mats_b, mats_a, atol, merged_rtol)


def _dual_matrices(channels, postcondition: QuantumAssertion, liberal: bool) -> List[np.ndarray]:
    """Return ``{E†(P) : E, P}`` (wp) or ``{E†(P) + I − E†(I) : E, P}`` (wlp)."""
    identity = np.eye(postcondition.dimension, dtype=complex)
    matrices = []
    for channel in channels:
        leak = identity - channel.apply_adjoint(identity) if liberal else 0
        for predicate in postcondition.predicates:
            matrices.append(channel.apply_adjoint(predicate.matrix) + leak)
    return matrices


def _divergence(fuzz_program, source: str, kind: str, detail: str) -> Divergence:
    return Divergence(
        seed=fuzz_program.seed,
        index=fuzz_program.index,
        kind=kind,
        detail=detail,
        source=source,
    )


def check_program(
    fuzz_program: FuzzProgram,
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
) -> List[Divergence]:
    """Run the duality cell (and, on loop-free draws, the prover check) on one program.

    Returns the (possibly empty) list of divergences; this is the predicate
    the shrinker re-checks after every candidate reduction.
    """
    config = config or OracleConfig()
    environment = environment or default_environment()
    source = fuzz_program.source()

    task = build_task(source, environment)
    program = task.formula.program
    postcondition = task.formula.postcondition
    register = task.register
    has_loop = fuzz_program.contains_while()
    atol = config.loop_atol if has_loop else config.atol

    clear_result_cache()
    loop_options = dict(
        max_iterations=config.max_iterations,
        convergence_tolerance=0.0,
        sampled_schedulers=config.sampled_schedulers,
    )
    try:
        # Every explored scheduler's map, none merged with a near-duplicate.
        channels = denotation(program, register, DenotationOptions(dedup=False, **loop_options))
        wp_options = WpOptions(**loop_options)
        transformers = {
            "wp": weakest_precondition(program, postcondition, register, wp_options),
            "wlp": weakest_liberal_precondition(program, postcondition, register, wp_options),
        }
    except Exception as error:  # pragma: no cover - only on real engine bugs
        return [_divergence(fuzz_program, source, "error", f"{type(error).__name__}: {error}")]

    divergences: List[Divergence] = []
    for kind, transformed in transformers.items():
        dual = _dual_matrices(channels, postcondition, liberal=kind == "wlp")
        if not _assertions_close(_matrices(transformed), dual, atol, merged_rtol=_MERGED_RTOL):
            divergences.append(
                _divergence(
                    fuzz_program,
                    source,
                    kind,
                    f"{kind} differs from the dual of the denotation "
                    f"(|{kind}|={len(transformed.predicates)}, |dual|={len(dual)}, "
                    f"atol={atol:g})",
                )
            )

    if config.check_prover and not has_loop:
        clear_result_cache()
        prover = Prover(register, mode=CorrectnessMode.PARTIAL, invariants=task.invariants)
        outline = prover.generate(program, postcondition)
        if not _assertions_close(
            _matrices(outline.precondition), _matrices(transformers["wlp"]), atol=config.atol
        ):
            divergences.append(
                _divergence(
                    fuzz_program,
                    source,
                    "prover",
                    "prover verification condition differs from semantic wlp",
                )
            )
    return divergences


def run_differential(
    programs: Sequence[FuzzProgram],
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
    on_program: Optional[Callable[[int, FuzzProgram, List[Divergence]], None]] = None,
) -> DifferentialReport:
    """Sweep the oracle over a batch of programs and aggregate a report.

    ``on_program`` is an optional progress callback invoked after each
    program with ``(position, program, divergences)`` — the driver uses it
    to stream repro lines as soon as a finding appears.
    """
    config = config or OracleConfig()
    environment = environment or default_environment()
    seed = programs[0].seed if programs else 0
    report = DifferentialReport(seed=seed)
    for position, fuzz_program in enumerate(programs):
        divergences = check_program(fuzz_program, config, environment)
        report.programs_checked += 1
        if fuzz_program.contains_while():
            report.with_loops += 1
        else:
            report.loop_free += 1
            if config.check_prover:
                report.prover_checked += 1
        report.divergences.extend(divergences)
        if on_program is not None:
            on_program(position, fuzz_program, divergences)
    return report
