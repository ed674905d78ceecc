"""Seeded request streams of the benchmark's four workloads.

Every workload is a fixed suite of request kinds.  Round ``r`` issues each
kind once, in an order and with parameters drawn from ``(seed, r)``.  So every
run sees the same mix of kinds whatever its seed, the heavy fuzz draws
included, and runs that measure whole rounds stay comparable across seeds.

A request builds its inputs when it is issued, outside the timer.  No AST
node or assertion object is shared between requests, so the node-digest memo
of :mod:`repro.hashing` starts cold for each request, as it would for
independent users; only the result cache (where the workload keeps it) carries
state from one request to the next.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import verify_formula, verify_source
from repro.analysis.refinement import check_refinement
from repro.assistant.verify import build_task
from repro.fuzz.generator import FChoice, FGate, FIf, FWhile, FuzzProgram, generate_batch
from repro.language.ast import If, NDet, Seq, Unitary, While, ndet, seq
from repro.linalg.constants import NAMED_GATES
from repro.logic.formula import CorrectnessFormula
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.programs import (
    deutsch_formula,
    errcorr_formula,
    errcorr_program,
    errcorr_register,
    grover_formula,
    grover_success_probability,
    invalid_invariant,
    phaseflip_formula,
    qwalk_formula,
    qwalk_invariant,
    qwalk_program,
    qwalk_qubit_names,
    rus_formula,
    rus_invariant,
    teleport_formula,
)

from reference import Computed, Expected, Refines, Task

#: The fuzz corpus: ``generate_batch(FUZZ_CORPUS_SEED, FUZZ_CORPUS_SIZE)`` with the
#: default ``GeneratorConfig``; 2023 is the seed the repository's fuzz sweep uses.
#: It is fixed so that every run verifies the same programs, its heavy draws
#: included: per-seed batches of 200 took 5.8 s to 19 s to verify, a spread no
#: regression bound could absorb.
FUZZ_CORPUS_SEED = 2023
FUZZ_CORPUS_SIZE = 200

#: Fuzz-corpus programs that seed ``edit-stream`` lineages: the first ones, in
#: corpus order, that have a one- or two-qubit gate to edit.
EDIT_FUZZ_LINEAGES = 80

#: Gates an edit may substitute, by arity.
EDIT_GATES = {1: ("X", "Y", "Z", "H", "S", "T"), 2: ("CX", "CZ", "SWAP", "C0X", "W1", "W2")}

# Stream tags keep the random streams of different purposes apart.
_PARAMS, _ORDER, _WARMUP, _EDITS = 1, 2, 3, 4


@dataclass
class Request:
    """One client request.

    ``build`` makes fresh inputs (untimed); ``execute`` is the timed call;
    ``task`` resolves the inputs into a :class:`~reference.Task` for the
    reference; ``reference.check`` judges the outcome (untimed).
    """

    label: str
    build: Callable[[], Any]
    execute: Callable[[Any], Any]
    reference: Any
    task: Optional[Callable[[Any], Task]] = None


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(tuple(int(part) for part in key))


def _bloch(rng: np.random.Generator):
    """Draw the amplitudes of a pure single-qubit state."""
    theta = rng.uniform(0.0, np.pi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(theta / 2)), complex(np.exp(1j * phi) * np.sin(theta / 2))


def _run_formula(inputs):
    formula, register, invariants = inputs
    return verify_formula(formula, register, invariants)


def _formula_task(inputs) -> Task:
    formula, register, invariants = inputs
    return Task(formula, register, invariants[0] if invariants else None)


def _source_task(source: str) -> Task:
    task = build_task(source)
    invariants = list(task.invariants.values())
    return Task(task.formula, task.register, invariants[0] if invariants else None)


def _run_refinement(inputs):
    implementation, specification = inputs
    return check_refinement(implementation, specification)


def _with_precondition(formula: CorrectnessFormula, precondition: QuantumAssertion) -> CorrectnessFormula:
    return CorrectnessFormula(precondition, formula.program, formula.postcondition, formula.mode)


def _formula_request(label, build, reference) -> Request:
    return Request(label, build, _run_formula, reference, _formula_task)


# --------------------------------------------------------------------------- casestudy


def _errcorr(n: int, negative: bool, rng) -> Request:
    alpha = _bloch(rng)

    def build():
        formula, register = errcorr_formula(*alpha, num_data_qubits=n)
        if negative:
            formula = _with_precondition(formula, QuantumAssertion.identity(n))
        return formula, register, None

    return _formula_request(f"errcorr{n}{'-pre-I' if negative else ''}", build, Expected(verified=not negative))


def _grover(n: int, negative: bool, rng) -> Request:
    marked = int(rng.integers(2 ** n))
    probability = grover_success_probability(n)
    # (p+δ)·I with 0 < δ < 1 − p: strictly stronger than the wp p·I, still a predicate.
    slack = (1.0 - probability) * rng.uniform(0.2, 0.8)

    def build():
        formula, register = grover_formula(n, marked, layout="gates")
        if negative:
            stronger = QuantumPredicate.uniform(probability + slack, n, name="p+d")
            formula = _with_precondition(formula, QuantumAssertion([stronger]))
        return formula, register, None

    return _formula_request(f"grover{n}{'-pre-p+d' if negative else ''}", build, Expected(verified=not negative))


def _qwalk(positions: int, negative: bool, rng) -> Request:
    def build():
        formula, register = qwalk_formula(positions)
        invariant = invalid_invariant(positions) if negative else qwalk_invariant(positions)
        return formula, register, [invariant]

    reference = Expected(invariant_error=True) if negative else Expected(verified=True)
    return _formula_request(f"qwalk{positions}{'-invalid-inv' if negative else ''}", build, reference)


def _fixed(label: str, make) -> Callable:
    def kind(rng) -> Request:
        return _formula_request(label, make, Expected(verified=True))

    return kind


def _with_state(label: str, family) -> Callable:
    def kind(rng) -> Request:
        alpha = _bloch(rng)
        return _formula_request(label, lambda: (*family(*alpha), None), Expected(verified=True))

    return kind


def _casestudy_kinds() -> List[Callable]:
    """Each positive formula twice per round (fresh parameters each time), each negative control once.

    Valid formulas dominate a proof-assistant session.  The 2:1 mix also puts
    the 90th percentile inside a cluster of similar requests (errcorr6 and
    rus-ndet) instead of on the edge of the three slow negative controls.
    """
    positives: List[Callable] = [lambda rng, n=n: _errcorr(n, False, rng) for n in (3, 4, 5, 6)]
    positives += [lambda rng, n=n: _grover(n, False, rng) for n in (3, 4, 5, 6)]
    positives += [lambda rng, p=p: _qwalk(p, False, rng) for p in (8, 16, 32, 64)]
    positives += [
        _fixed("deutsch", lambda: (*deutsch_formula(), None)),
        _with_state("teleport", teleport_formula),
        _with_state("phaseflip", phaseflip_formula),
        _fixed("rus", lambda: (*rus_formula(), [rus_invariant()])),
        _fixed("rus-ndet", lambda: (*rus_formula(nondeterministic=True), [rus_invariant()])),
    ]
    negatives: List[Callable] = [lambda rng, n=n: _errcorr(n, True, rng) for n in (3, 4, 5, 6)]
    negatives += [lambda rng, n=n: _grover(n, True, rng) for n in (3, 4, 5, 6)]
    negatives += [lambda rng, p=p: _qwalk(p, True, rng) for p in (8, 16, 32, 64)]
    return positives + positives + negatives


class Workload:
    """A seeded stream of rounds.

    By default a round issues every entry of ``kinds`` once, in a seeded
    order; a kind maps the round's random generator to a :class:`Request`.
    """

    name = ""
    #: Whether the result cache is cleared before every request.
    clears_cache = True
    kinds: List[Callable] = []

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _round(self, rng) -> List[Request]:
        return [self.kinds[k](rng) for k in rng.permutation(len(self.kinds))]

    def round(self, index: int) -> List[Request]:
        """Return the requests of round ``index`` (a pure function of seed and index)."""
        return self._round(_rng(self.seed, _ORDER, index))

    def warmup(self) -> List[Request]:
        """Return the untimed requests issued before measuring."""
        return self._round(_rng(self.seed, _WARMUP))


class CaseStudy(Workload):
    """Programmatic case-study formulas checked cold with ``verify_formula``."""

    name = "casestudy"
    kinds = _casestudy_kinds()


# --------------------------------------------------------------------------- fuzz-source

_QUBIT_NAME = re.compile(r"\bq(\d+)\b")


def relabel_qubits(source: str, num_qubits: int, rng) -> str:
    """Rename the qubits ``q0 … q{n-1}`` of a fuzz program by a seeded permutation."""
    permutation = rng.permutation(num_qubits)
    return _QUBIT_NAME.sub(lambda match: f"q{permutation[int(match.group(1))]}", source)


def fuzz_corpus() -> List[FuzzProgram]:
    """Return the fixed fuzz corpus shared by ``fuzz-source`` and ``edit-stream``."""
    return generate_batch(FUZZ_CORPUS_SEED, FUZZ_CORPUS_SIZE)


def _source_request(label: str, source: str, reference) -> Request:
    return Request(label, lambda: source, verify_source, reference, _source_task)


class FuzzSource(Workload):
    """The fuzz corpus as ``.nqpv`` text, checked cold with ``verify_source``.

    The seed relabels each program's qubits and orders every round; the
    programs themselves are the fixed corpus (see :data:`FUZZ_CORPUS_SEED`).
    """

    name = "fuzz-source"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sources = [
            relabel_qubits(program.source(), len(program.qubits), _rng(seed, _PARAMS, index))
            for index, program in enumerate(fuzz_corpus())
        ]
        self.memo: Dict[str, Dict[str, Any]] = {}

    def _request(self, index: int) -> Request:
        source = self.sources[index]
        return _source_request(f"fuzz-{FUZZ_CORPUS_SEED}-{index}", source, Computed(source, self.memo))

    def round(self, index: int) -> List[Request]:
        order = _rng(self.seed, _ORDER, index).permutation(len(self.sources))
        return [self._request(int(i)) for i in order]

    def warmup(self) -> List[Request]:
        return [self._request(i) for i in range(16)]


# --------------------------------------------------------------------------- edit-stream


def _gate_positions(program) -> List[str]:
    """Names of the one- and two-qubit unitaries of an AST, in pre-order."""
    return [
        node.name for node in program.walk() if isinstance(node, Unitary) and len(node.qubits) <= 2
    ]


def _replace_gate(program, position: int, name: str):
    """Return ``program`` with its ``position``-th editable gate replaced by gate ``name``."""
    remaining = [position]

    def visit(node):
        if isinstance(node, Unitary) and len(node.qubits) <= 2:
            remaining[0] -= 1
            if remaining[0] == -1:
                return Unitary(node.qubits, name, NAMED_GATES[name])
            return node
        if isinstance(node, Seq):
            return Seq(tuple(visit(child) for child in node.statements))
        if isinstance(node, NDet):
            return NDet(tuple(visit(child) for child in node.branches))
        if isinstance(node, If):
            return If(node.measurement, node.qubits, visit(node.then_branch), visit(node.else_branch))
        if isinstance(node, While):
            return While(node.measurement, node.qubits, visit(node.body))
        return node

    return visit(program)


def _fuzz_gate_positions(block) -> List[str]:
    names: List[str] = []
    for statement in block:
        if isinstance(statement, FGate) and len(statement.qubits) <= 2:
            names.append(statement.name)
        elif isinstance(statement, FIf):
            names += _fuzz_gate_positions(statement.then_block)
            names += _fuzz_gate_positions(statement.else_block or ())
        elif isinstance(statement, FWhile):
            names += _fuzz_gate_positions(statement.body)
        elif isinstance(statement, FChoice):
            for branch in statement.branches:
                names += _fuzz_gate_positions(branch)
    return names


def _replace_fuzz_gate(block, remaining: List[int], name: str):
    edited = []
    for statement in block:
        if isinstance(statement, FGate) and len(statement.qubits) <= 2:
            remaining[0] -= 1
            if remaining[0] == -1:
                statement = replace(statement, name=name)
        elif isinstance(statement, FIf):
            then_block = _replace_fuzz_gate(statement.then_block, remaining, name)
            else_block = statement.else_block
            if else_block is not None:
                else_block = _replace_fuzz_gate(else_block, remaining, name)
            statement = replace(statement, then_block=then_block, else_block=else_block)
        elif isinstance(statement, FWhile):
            statement = replace(statement, body=_replace_fuzz_gate(statement.body, remaining, name))
        elif isinstance(statement, FChoice):
            branches = tuple(_replace_fuzz_gate(b, remaining, name) for b in statement.branches)
            statement = replace(statement, branches=branches)
        edited.append(statement)
    return tuple(edited)


def _gate_arity(name: str) -> int:
    return 1 if name in EDIT_GATES[1] else 2


class _Lineage:
    """A base program plus the edits applied to it, one per generation.

    Edit ``g`` replaces one seeded editable gate by another of the same arity;
    it is drawn from ``(seed, lineage, g)`` only, so generation ``g`` is the
    same program however the run reached it.
    """

    def __init__(self, label: str, seed: int, index: int, gate_names: List[str]):
        self.label = label
        self.seed = seed
        self.index = index
        self.names = list(gate_names)
        self.edits: List[tuple] = []

    def edits_until(self, generation: int) -> List[tuple]:
        while len(self.edits) < generation:
            rng = _rng(self.seed, _EDITS, self.index, len(self.edits) + 1)
            position = int(rng.integers(len(self.names)))
            current = self.names[position]
            pool = [gate for gate in EDIT_GATES[_gate_arity(current)] if gate != current]
            name = pool[int(rng.integers(len(pool)))]
            self.names[position] = name
            self.edits.append((position, name))
        return self.edits[:generation]


class _FormulaLineage(_Lineage):
    """A case-study formula under edit; checked with ``verify_formula``."""

    def __init__(self, label: str, seed: int, index: int, make):
        self.make = make
        formula, _, _ = make()
        super().__init__(label, seed, index, _gate_positions(formula.program))

    def request(self, generation: int) -> Request:
        edits = self.edits_until(generation)

        def build():
            formula, register, invariants = self.make()
            program = formula.program
            for position, name in edits:
                program = _replace_gate(program, position, name)
            edited = CorrectnessFormula(formula.precondition, program, formula.postcondition, formula.mode)
            return edited, register, invariants

        return _formula_request(f"{self.label}@{generation}", build, Computed(f"{self.label}@{generation}", {}))


class _SourceLineage(_Lineage):
    """A fuzz-corpus program under edit; rendered to source and checked with ``verify_source``."""

    def __init__(self, label: str, seed: int, index: int, program: FuzzProgram):
        self.program = program
        super().__init__(label, seed, index, _fuzz_gate_positions(program.statements))

    def request(self, generation: int) -> Request:
        statements = self.program.statements
        for position, name in self.edits_until(generation):
            statements = _replace_fuzz_gate(statements, [position], name)
        source = self.program.replaced(statements=statements).source()
        return _source_request(f"{self.label}@{generation}", source, Computed(source, {}))


class EditStream(Workload):
    """Lineages of case-study and fuzz programs, each edited once per round; the cache persists.

    Round 0 issues every base program; round ``r`` issues each lineage's
    generation ``r``, which is its round ``r − 1`` request with one gate
    replaced.  Unchanged subterms hit the result cache; the changed path
    misses.  Stale entries pile up until the cache's default capacity is
    exceeded and evictions start, part way through a run.
    """

    name = "edit-stream"
    clears_cache = False

    def __init__(self, seed: int):
        super().__init__(seed)
        params = _rng(seed, _PARAMS)
        alpha = [_bloch(params) for _ in range(6)]
        marked = [int(params.integers(2 ** n)) for n in (3, 4, 5, 6)]
        bases = [(f"errcorr{n}", lambda n=n, a=a: (*errcorr_formula(*a, num_data_qubits=n), None))
                 for n, a in zip((3, 4, 5, 6), alpha)]
        bases += [(f"grover{n}", lambda n=n, m=m: (*grover_formula(n, m, layout="gates"), None))
                  for n, m in zip((3, 4, 5, 6), marked)]
        bases += [(f"qwalk{p}", lambda p=p: (*qwalk_formula(p), [qwalk_invariant(p)])) for p in (8, 16)]
        bases += [
            ("deutsch", lambda: (*deutsch_formula(), None)),
            ("teleport", lambda a=alpha[4]: (*teleport_formula(*a), None)),
            ("phaseflip", lambda a=alpha[5]: (*phaseflip_formula(*a), None)),
        ]
        self.lineages: List[Any] = [
            _FormulaLineage(label, seed, index, make) for index, (label, make) in enumerate(bases)
        ]
        editable = [p for p in fuzz_corpus() if _fuzz_gate_positions(p.statements)]
        for program in editable[:EDIT_FUZZ_LINEAGES]:
            label = f"fuzz-{FUZZ_CORPUS_SEED}-{program.index}"
            self.lineages.append(_SourceLineage(label, seed, len(self.lineages), program))

    def round(self, index: int) -> List[Request]:
        order = _rng(self.seed, _ORDER, index).permutation(len(self.lineages))
        return [self.lineages[int(i)].request(index) for i in order]

    def warmup(self) -> List[Request]:
        return [lineage.request(0) for lineage in self.lineages[:16]]


# --------------------------------------------------------------------------- refinement


def _map_choice(program, rewrite):
    """Apply ``rewrite`` to the program's nondeterministic choice (each family has exactly one)."""
    if isinstance(program, NDet):
        return rewrite(program)
    if isinstance(program, Seq):
        return Seq(tuple(_map_choice(child, rewrite) for child in program.statements))
    if isinstance(program, While):
        return While(program.measurement, program.qubits, _map_choice(program.body, rewrite))
    return program


def _gate(name: str, qubit: str) -> Unitary:
    return Unitary((qubit,), name, NAMED_GATES[name])


def _errcorr_family(size: int):
    return lambda: errcorr_program(size), errcorr_register(size).names, size + 1


def _qwalk_family(positions: int):
    return lambda: qwalk_program(positions), qwalk_qubit_names(positions), 2


#: The paper's four-vertex walk (Sec. 5.3) is included so that half of a
#: round's requests are cheap and the median falls among them, not in the gap
#: between the cheap and the expensive families.
REFINEMENT_FAMILIES = {
    "qwalk4": _qwalk_family(4),
    "errcorr3": _errcorr_family(3),
    "errcorr4": _errcorr_family(4),
    "qwalk8": _qwalk_family(8),
    "qwalk16": _qwalk_family(16),
}


def _added_branch(family: str, qubits, kind: int, rng):
    """A branch of the given ``kind`` (0 or 1) whose behaviour the specification does not allow.

    errcorr: a phase flip (0), or bit flips on two qubits (1) — errors the
    bit-flip code's choice does not contain and does not correct, so the data
    qubit comes out changed.  qwalk: flipping ``q1``, alone (0) or after a
    phase kick (1), moves the walker from ``|0…0⟩`` onto the absorbing vertex
    ``|10…0⟩``, so the loop terminates with a non-zero output, while every
    specified behaviour never terminates.
    """
    if family.startswith("errcorr"):
        if kind == 0:
            return _gate("Z", qubits[int(rng.integers(len(qubits)))])
        first, second = rng.choice(len(qubits), size=2, replace=False)
        return seq(_gate("X", qubits[int(first)]), _gate("X", qubits[int(second)]))
    if kind == 0:
        return _gate("X", qubits[0])
    return seq(_gate("Z", qubits[int(rng.integers(len(qubits)))]), _gate("X", qubits[0]))


def _refinement_request(family: str, added_kind: Optional[int], rng) -> Request:
    """Drop a seeded branch (``added_kind`` None, refines) or add a branch of ``added_kind`` (does not)."""
    make, qubits, branches = REFINEMENT_FAMILIES[family]
    if added_kind is None:
        dropped = int(rng.integers(branches))
        label = f"{family}-drop{dropped}"

        def rewrite(choice):
            return ndet(*(b for i, b in enumerate(choice.branches) if i != dropped))

    else:
        added = _added_branch(family, qubits, added_kind, rng)
        label = f"{family}-add{added_kind}"

        def rewrite(choice):
            return NDet(choice.branches + (added,))

    reference = Refines(added_kind is None)
    return Request(label, lambda: (_map_choice(make(), rewrite), make()), _run_refinement, reference)


class Refinement(Workload):
    """``check_refinement`` on (implementation, specification) pairs with constructed answers.

    Each family sends one drop and both kinds of added branch per round; the
    2:1 mix puts the 90th percentile inside the errcorr4 additions, not on
    the edge between its drops and additions.
    """

    name = "refinement"
    kinds = [
        lambda rng, family=family, kind=kind: _refinement_request(family, kind, rng)
        for family in REFINEMENT_FAMILIES
        for kind in (None, 0, 1)
    ]


WORKLOADS = {cls.name: cls for cls in (CaseStudy, FuzzSource, EditStream, Refinement)}
