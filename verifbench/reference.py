"""Reference verdicts, computed outside the timed path and never with ``repro.logic.prover``.

* :class:`Expected` — an analytic or paper answer fixed when the request is
  built (the case studies of Sec. 5 and the invalid invariant of Sec. 6.2).
* :class:`Computed` — derived from the program's semantics:

  - loop-free program: the verification condition must set-equal the weakest
    (liberal) precondition of :mod:`repro.semantics.wp`, and the verdict must
    equal a direct Löwner check of the declared precondition against it;
  - program with one partial-correctness loop: the (While) premise
    ``Θ ⊑ wlp.S.(P⁰(Ψ) + P¹(Θ))`` is checked directly, with ``Ψ`` the wlp of
    everything that follows the loop.  A failing premise must come back as
    :class:`~repro.exceptions.InvariantError`; otherwise the returned
    verification condition must pass
    :func:`~repro.logic.semantic_check.check_formula_semantically`.

* :class:`Refines` — the answer a refinement pair has by construction.

Computed references run with the result cache switched off, so they neither
warm nor evict the entries the measured requests use.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro import configure_result_cache
from repro.exceptions import InvariantError
from repro.language.ast import Seq, While, seq
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.semantic_check import check_formula_semantically
from repro.predicates.assertion import QuantumAssertion, measured_sum
from repro.registers import QubitRegister
from repro.semantics.denotational import measurement_pair
from repro.semantics.wp import weakest_liberal_precondition, weakest_precondition

#: Precision the verdicts are decided at (the default ``ProverOptions().epsilon``).
EPSILON = 1e-6

#: Entry-wise tolerance when comparing a verification condition with the wp.
VC_ATOL = 1e-7


@dataclass
class Outcome:
    """What a timed request returned, or the exception it raised."""

    value: Any = None
    error: Optional[BaseException] = None


@dataclass
class Task:
    """A resolved verification problem: formula, register and the loop invariant (if any)."""

    formula: CorrectnessFormula
    register: QubitRegister
    invariant: Optional[QuantumAssertion] = None


@contextmanager
def cache_disabled():
    """Switch the process-wide result cache off for the duration of a reference computation."""
    configure_result_cache(enabled=False)
    try:
        yield
    finally:
        configure_result_cache(enabled=True)


def assertions_close(a: QuantumAssertion, b: QuantumAssertion, atol: float = VC_ATOL) -> bool:
    """Return whether two assertions contain the same predicates, entry-wise to ``atol``."""
    if a.dimension != b.dimension:
        return False
    mats_a = [np.asarray(p.matrix) for p in a.predicates]
    mats_b = [np.asarray(p.matrix) for p in b.predicates]
    return all(any(np.allclose(x, y, atol=atol, rtol=0.0) for y in mats_b) for x in mats_a) and all(
        any(np.allclose(x, y, atol=atol, rtol=0.0) for x in mats_a) for y in mats_b
    )


def entails(pre: QuantumAssertion, post: QuantumAssertion, epsilon: float = EPSILON) -> bool:
    """Decide ``{M} ⊑_inf Ψ`` for a singleton precondition by eigenvalues: ``N − M ⪰ −ε`` for all ``N``."""
    if not pre.is_singleton():
        raise ValueError("the benchmark's preconditions are single predicates")
    theta = np.asarray(pre.predicates[0].matrix)
    return all(
        np.linalg.eigvalsh(np.asarray(p.matrix) - theta).min() >= -epsilon for p in post.predicates
    )


def _loop_path(node, path=()):
    """Return the ``(ancestor, child index)`` path from the root to the first loop."""
    if isinstance(node, While):
        return path + ((node, None),)
    for index, child in enumerate(node.children()):
        found = _loop_path(child, path + ((node, index),))
        if found is not None:
            return found
    return None


def premise_holds(task: Task, epsilon: float = EPSILON) -> bool:
    """Check the (While) premise of a program's single loop directly on the wlp semantics.

    The postcondition reaching the loop is the wlp of the statements that run
    after it; conditionals and choices pass it through unchanged.  For a set
    ``Ψ`` the premise holds iff it holds for every member, so checking the set
    once covers the per-predicate checks the prover makes under ``Meas+Union``.
    """
    program = task.formula.program
    path = _loop_path(program)
    loop = path[-1][0]
    continuation = []
    for node, index in reversed(path[:-1]):
        if isinstance(node, Seq):
            continuation.extend(node.statements[index + 1:])
    post = task.formula.postcondition
    if continuation:
        post = weakest_liberal_precondition(seq(*continuation), post, task.register)
    p0, p1 = measurement_pair(loop, task.register)
    loop_condition = measured_sum(p0, post, p1, task.invariant)
    body_wlp = weakest_liberal_precondition(loop.body, loop_condition, task.register)
    return entails(task.invariant, body_wlp, epsilon)


class Expected:
    """An analytic answer: ``verified`` true/false, or an :class:`InvariantError`."""

    def __init__(self, verified: Optional[bool] = None, invariant_error: bool = False):
        self.verified = verified
        self.invariant_error = invariant_error

    def check(self, task_of, outcome: Outcome) -> bool:
        """Return whether ``outcome`` is the expected answer."""
        if self.invariant_error:
            return isinstance(outcome.error, InvariantError)
        return outcome.error is None and bool(outcome.value.verified) == self.verified


class Refines:
    """The by-construction answer of a refinement pair."""

    def __init__(self, refines: bool):
        self.refines = refines

    def check(self, task_of, outcome: Outcome) -> bool:
        """Return whether the refinement report gives the constructed answer."""
        return outcome.error is None and bool(outcome.value.refines) == self.refines


class Computed:
    """A reference derived from the semantics of the request's program.

    ``memo`` (shared by the requests of one workload) keeps the results per
    ``key`` so an input issued again in a later round is not recomputed.
    """

    def __init__(self, key: str, memo: Dict[str, Dict[str, Any]]):
        self.key = key
        self.memo = memo

    def check(self, task_of, outcome: Outcome) -> bool:
        """Check the outcome against the semantics of ``task_of()``, the request's resolved task."""
        entry = self.memo.setdefault(self.key, {})
        with cache_disabled():
            return self._check(entry, task_of, outcome)

    @staticmethod
    def _check(entry: Dict[str, Any], task_of, outcome: Outcome) -> bool:
        if "task" not in entry:
            entry["task"] = task_of()
        task: Task = entry["task"]
        formula = task.formula
        if not formula.program.contains_while():
            if "wp" not in entry:
                transformer = (
                    weakest_precondition
                    if formula.mode is CorrectnessMode.TOTAL
                    else weakest_liberal_precondition
                )
                entry["wp"] = transformer(formula.program, formula.postcondition, task.register)
            if outcome.error is not None:
                return False
            report = outcome.value
            return assertions_close(report.verification_condition, entry["wp"]) and (
                bool(report.verified) == entails(formula.precondition, entry["wp"])
            )
        loops = [node for node in formula.program.walk() if isinstance(node, While)]
        if len(loops) != 1 or formula.mode is not CorrectnessMode.PARTIAL:
            raise ValueError("computed references cover loop-free programs and one partial-correctness loop")
        if "premise" not in entry:
            entry["premise"] = premise_holds(task)
        if not entry["premise"]:
            return isinstance(outcome.error, InvariantError)
        if outcome.error is not None:
            return False
        report = outcome.value
        vc = report.verification_condition
        checked = entry.get("sound_vc")
        if checked is None or not assertions_close(vc, checked):
            transferred = CorrectnessFormula(vc, formula.program, formula.postcondition, CorrectnessMode.PARTIAL)
            if not check_formula_semantically(transferred, task.register).holds:
                return False
            entry["sound_vc"] = vc
        return bool(report.verified) == entails(formula.precondition, vc)
