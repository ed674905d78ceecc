"""Every program of the library through the Kraus-form semantic engines.

The denotation ``[[S]]`` of a program is a set of completely positive,
trace-nonincreasing maps (Lemma 3.2 of the paper), and its pre-condition
transformers satisfy ``wp.S.{P} ⊑ wlp.S.{P}`` scheduler by scheduler.  These
tests sweep the whole program library (:mod:`repro.programs`) and check those
structural facts, the Kraus ↔ Choi round trip of every denotation element,
and that equivalence and refinement are reflexive on every program.
"""

import numpy as np
import pytest

from repro.linalg.constants import ORDER_ATOL
from repro.linalg.operators import loewner_le
from repro.linalg.random import random_predicate_matrix
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
from repro.semantics.denotational import denotation
from repro.semantics.equivalence import program_refines, programs_equivalent
from repro.semantics.wp import weakest_liberal_precondition, weakest_precondition
from repro.superop.choi import is_cp_choi, kraus_from_choi
from repro.superop.kraus import SuperOperator

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
NAMES = sorted(PROGRAMS)


def _program_and_register(name):
    program = PROGRAMS[name]()
    return program, QubitRegister.for_program(program)


@pytest.mark.parametrize("name", NAMES)
def test_denotation_elements_are_cp_and_trace_nonincreasing(name):
    program, register = _program_and_register(name)
    maps = denotation(program, register)
    assert maps, name
    for channel in maps:
        assert channel.dimension == register.dimension
        assert channel.is_trace_nonincreasing(), name
        assert is_cp_choi(channel.choi()), name


@pytest.mark.parametrize("name", NAMES)
def test_denotation_elements_survive_the_choi_round_trip(name):
    program, register = _program_and_register(name)
    for channel in denotation(program, register):
        rebuilt = SuperOperator(kraus_from_choi(channel.choi()), validate=False)
        assert rebuilt.equals(channel, atol=1e-8), name


@pytest.mark.parametrize("name", NAMES)
def test_wp_lies_below_wlp(name):
    # wp_η(P) = E_η†(P) ⊑ E_η†(P) + I − E_η†(I) = wlp_η(P) for each scheduler η,
    # so every wp predicate has a wlp predicate above it.
    program, register = _program_and_register(name)
    post = QuantumAssertion([random_predicate_matrix(register.dimension, seed=5)])
    wp = weakest_precondition(program, post, register)
    wlp = weakest_liberal_precondition(program, post, register)
    for lower in wp:
        assert any(
            loewner_le(lower.matrix, upper.matrix, atol=ORDER_ATOL) for upper in wlp
        ), name


@pytest.mark.parametrize("name", NAMES)
def test_preconditions_are_predicates(name):
    program, register = _program_and_register(name)
    post = QuantumAssertion([random_predicate_matrix(register.dimension, seed=9)])
    identity = np.eye(register.dimension)
    for transformer in (weakest_precondition, weakest_liberal_precondition):
        for predicate in transformer(program, post, register):
            assert loewner_le(np.zeros_like(identity), predicate.matrix, atol=ORDER_ATOL)
            assert loewner_le(predicate.matrix, identity, atol=ORDER_ATOL)


@pytest.mark.parametrize("name", NAMES)
def test_every_program_is_equivalent_to_itself(name):
    program = PROGRAMS[name]()
    assert programs_equivalent(program, program)


@pytest.mark.parametrize("name", NAMES)
def test_every_program_refines_itself(name):
    program = PROGRAMS[name]()
    assert program_refines(program, program)
