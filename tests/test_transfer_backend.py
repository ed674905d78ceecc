"""Cross-backend agreement: Kraus vs transfer semantics on every case study.

The transfer backend is only worth having if it is *silently* interchangeable:
for every program shipped in :mod:`repro.programs`, both backends must produce
the same denotation set and the same wp/wlp preconditions up to numerical
tolerance.  These tests sweep the whole program library.
"""

import numpy as np
import pytest

from repro.exceptions import SemanticsError
from repro.language.ast import While
from repro.linalg.random import random_predicate_matrix
from repro.logic.prover import ProverOptions
from repro.predicates.assertion import QuantumAssertion
from repro.programs import (
    deutsch_program,
    errcorr_program,
    grover_program,
    nondeterministic_rus_program,
    phaseflip_program,
    qwalk_program,
    rus_program,
    teleport_program,
)
from repro.registers import QubitRegister
from repro.semantics.denotational import (
    DenotationOptions,
    denotation,
    initializer_channel,
    loop_iterates,
    measurement_pair,
)
from repro.semantics.equivalence import programs_equivalent
from repro.semantics.schedulers import ConstantScheduler
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.superop.compare import set_equal
from repro.superop.transfer import TransferSuperOperator

#: Every program of the library, keyed for readable parametrised test ids.
PROGRAMS = {
    "deutsch": deutsch_program,
    "errcorr": errcorr_program,
    "grover2": lambda: grover_program(2),
    "grover3": lambda: grover_program(3),
    "phaseflip": phaseflip_program,
    "qwalk": qwalk_program,
    "rus": rus_program,
    "rus_ndet": nondeterministic_rus_program,
    "teleport": teleport_program,
}


def _register_for(program):
    return QubitRegister.for_program(program)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_backends_agree_on_denotations(name):
    program = PROGRAMS[name]()
    register = _register_for(program)
    kraus_maps = denotation(program, register, DenotationOptions(backend="kraus"))
    transfer_maps = denotation(program, register, DenotationOptions(backend="transfer"))
    assert all(isinstance(channel, TransferSuperOperator) for channel in transfer_maps)
    assert len(kraus_maps) == len(transfer_maps)
    assert set_equal(kraus_maps, transfer_maps, atol=1e-8)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("liberal", [False, True], ids=["wp", "wlp"])
def test_backends_agree_on_preconditions(name, liberal):
    program = PROGRAMS[name]()
    register = _register_for(program)
    post = QuantumAssertion([random_predicate_matrix(register.dimension, seed=5)])
    transformer = weakest_liberal_precondition if liberal else weakest_precondition
    kraus_pre = transformer(program, post, register, WpOptions(backend="kraus"))
    transfer_pre = transformer(program, post, register, WpOptions(backend="transfer"))
    assert len(kraus_pre.predicates) == len(transfer_pre.predicates)
    assert kraus_pre.set_equal(transfer_pre)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_program_is_self_equivalent_across_backends(name):
    program = PROGRAMS[name]()
    assert programs_equivalent(program, program, backend="transfer")


def test_loop_iterates_agree_and_share_prefix_cache():
    program = nondeterministic_rus_program()
    loop = next(node for node in program.walk() if isinstance(node, While))
    register = QubitRegister(["q"])
    options = DenotationOptions(max_iterations=12, convergence_tolerance=0.0)

    kraus_bodies = denotation(loop.body, register, DenotationOptions(backend="kraus"))
    transfer_bodies = denotation(loop.body, register, DenotationOptions(backend="transfer"))
    cache = {}
    for scheduler in (ConstantScheduler(0), ConstantScheduler(1)):
        kraus_chain = loop_iterates(loop, register, kraus_bodies, scheduler, options)
        transfer_chain = loop_iterates(
            loop, register, transfer_bodies, scheduler, options, prefix_cache=cache
        )
        assert len(kraus_chain) == len(transfer_chain)
        for kraus_item, transfer_item in zip(kraus_chain, transfer_chain):
            assert transfer_item.equals(kraus_item, atol=1e-8)
    # The empty prefix is shared; each constant scheduler contributes its own
    # chain of choice-keyed prefixes on top of it.
    assert () in cache
    assert len(cache) == 2 * 12 + 1


def test_prefix_cache_reuse_gives_identical_results():
    program = rus_program()
    register = QubitRegister(["q"])
    loop = next(node for node in program.walk() if isinstance(node, While))
    options = DenotationOptions(max_iterations=10, convergence_tolerance=0.0, backend="transfer")
    bodies = denotation(loop.body, register, options)
    scheduler = ConstantScheduler(0)
    cold = loop_iterates(loop, register, bodies, scheduler, options)
    cache = {}
    warm_first = loop_iterates(loop, register, bodies, scheduler, options, prefix_cache=cache)
    populated = dict(cache)
    warm_second = loop_iterates(loop, register, bodies, scheduler, options, prefix_cache=cache)
    assert populated.keys() == cache.keys()
    for a, b, c in zip(cold, warm_first, warm_second):
        assert np.array_equal(b.matrix, c.matrix)
        assert a.equals(b, atol=1e-10)


def test_unknown_backend_is_rejected():
    from repro.language.ast import Skip
    from repro.logic.checker import check_rule
    from repro.logic.formula import CorrectnessFormula, CorrectnessMode

    with pytest.raises(SemanticsError):
        DenotationOptions(backend="liouville-but-misspelt")
    with pytest.raises(SemanticsError):
        WpOptions(backend="transferr")
    identity = QuantumAssertion.identity(1)
    conclusion = CorrectnessFormula(identity, Skip(), identity, CorrectnessMode.PARTIAL)
    with pytest.raises(SemanticsError):
        check_rule("Skip", conclusion, register=QubitRegister(["q"]), backend="krauss")
    with pytest.raises(SemanticsError):
        ProverOptions(backend="tranfer")


def test_channel_helpers_reject_misspelled_backends():
    # A typo must not silently fall back to Kraus-form maps.
    register = QubitRegister(["q"])
    loop = next(node for node in rus_program().walk() if isinstance(node, While))
    with pytest.raises(SemanticsError):
        measurement_pair(loop, register, backend="transfr")
    with pytest.raises(SemanticsError):
        initializer_channel(["q"], register, backend="transfr")
    p0, p1 = measurement_pair(loop, register, backend="transfer")
    assert isinstance(p0, TransferSuperOperator) and isinstance(p1, TransferSuperOperator)
    channel = initializer_channel(["q"], register, backend="transfer")
    assert isinstance(channel, TransferSuperOperator)


def _backend_entry_points():
    """Yield ``(id, call)`` for every public entry point that takes a backend name."""
    from repro.assistant.verify import verify
    from repro.language.ast import Skip
    from repro.logic.checker import check_rule
    from repro.logic.formula import CorrectnessFormula, CorrectnessMode
    from repro.semantics.equivalence import program_refines

    register = QubitRegister(["q"])
    loop = next(node for node in rus_program().walk() if isinstance(node, While))
    identity = QuantumAssertion.identity(1)
    conclusion = CorrectnessFormula(identity, Skip(), identity, CorrectnessMode.PARTIAL)
    program = rus_program()
    yield "DenotationOptions", lambda b: DenotationOptions(backend=b)
    yield "WpOptions", lambda b: WpOptions(backend=b)
    yield "ProverOptions", lambda b: ProverOptions(backend=b)
    yield "check_rule", lambda b: check_rule("Skip", conclusion, register=register, backend=b)
    yield "measurement_pair", lambda b: measurement_pair(loop, register, backend=b)
    yield "initializer_channel", lambda b: initializer_channel(["q"], register, backend=b)
    yield "programs_equivalent", lambda b: programs_equivalent(program, program, backend=b)
    yield "program_refines", lambda b: program_refines(program, program, backend=b)
    yield "verify", lambda b: verify("{ I[q] }; skip; { I[q] }", backend=b)


BACKEND_ENTRY_POINTS = list(_backend_entry_points())


@pytest.mark.parametrize(
    "call",
    [entry[1] for entry in BACKEND_ENTRY_POINTS],
    ids=[entry[0] for entry in BACKEND_ENTRY_POINTS],
)
def test_every_backend_entry_point_rejects_a_misspelling(call):
    with pytest.raises(SemanticsError, match="unknown semantics backend"):
        call("transfr")
    call("transfer")  # the correct spelling is accepted


@pytest.mark.parametrize("options_type", [DenotationOptions, WpOptions, ProverOptions])
def test_options_have_no_lifting_field(options_type):
    with pytest.raises(TypeError):
        options_type(**{"lifting": "local"})
