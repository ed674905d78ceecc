"""Tests for the NQPV-style proof-assistant front end (Sec. 6)."""

import numpy as np
import pytest

from repro.assistant.cli import main as cli_main
from repro.assistant.session import Session
from repro.assistant.verify import build_task, resolve_assertion, verify, verify_source
from repro.exceptions import AssistantError, InvariantError
from repro.language.names import default_environment
from repro.language.parser import AssertionSpec, PredicateTerm
from repro.linalg.constants import I2, P0
from repro.logic.formula import CorrectnessMode
from repro.programs.qwalk import qwalk_invariant
from repro.registers import QubitRegister

QWALK_SOURCE = """
{ I[q1] };
[q1 q2] := 0;
{ inv: invN[q1 q2] };
while MQWalk [q1 q2] do
    ( [q1 q2] *= W1 ; [q1 q2] *= W2
    # [q1 q2] *= W2 ; [q1 q2] *= W1 )
end;
{ Zero[q1] }
"""

ERRCORR_SOURCE = """
{ Psi[q] };
[q1 q2] := 0;
[q q1] *= CX;
[q q2] *= CX;
( skip # [q] *= X # [q1] *= X # [q2] *= X );
[q q2] *= CX;
[q q1] *= CX;
if M [q2] then
    if M [q1] then
        [q] *= X
    else
        skip
    end
else
    skip
end;
{ Psi[q] }
"""


def psi_predicate():
    psi = np.array([[0.6], [0.8]], dtype=complex)
    return psi @ psi.conj().T


class TestResolveAssertion:
    def test_embedding_into_register(self):
        register = QubitRegister(["q1", "q2"])
        spec = AssertionSpec((PredicateTerm("P0", ("q1",)),))
        assertion = resolve_assertion(spec, register, default_environment())
        assert assertion.dimension == 4
        assert np.allclose(assertion.predicates[0].matrix, np.kron(P0, I2))

    def test_multiple_terms(self):
        register = QubitRegister(["q"])
        spec = AssertionSpec((PredicateTerm("P0", ("q",)), PredicateTerm("P1", ("q",))))
        assertion = resolve_assertion(spec, register, default_environment())
        assert len(assertion) == 2


class TestVerifySource:
    def test_quantum_walk_partial_correctness(self):
        report = verify(QWALK_SOURCE, operators={"invN": qwalk_invariant().predicates[0].matrix})
        assert report.verified
        rendered = report.outline.render()
        assert "while MQWalk" in rendered
        assert "VAR" in rendered

    def test_error_correction_via_surface_syntax(self):
        report = verify(ERRCORR_SOURCE, operators={"Psi": psi_predicate()})
        assert report.verified

    def test_invalid_invariant_surface_error(self):
        bad_source = QWALK_SOURCE.replace("invN[q1 q2]", "P0[q1]")
        with pytest.raises(InvariantError):
            verify(bad_source)

    def test_missing_postcondition_is_an_error(self):
        with pytest.raises(AssistantError):
            verify_source("{ I[q] }; [q] *= H")

    def test_omitted_precondition_reports_weakest_precondition(self):
        report = verify_source("[q] *= X; { P0[q] }")
        assert report.verified  # {0} ⊑ anything
        assert np.allclose(report.verification_condition.predicates[0].matrix, np.array([[0, 0], [0, 1]]))

    def test_total_mode(self):
        report = verify_source("{ P1[q] }; [q] *= X; { P0[q] }", mode=CorrectnessMode.TOTAL)
        assert report.verified

    def test_build_task_register_inference(self):
        task = build_task("{ I[q3] }; [q1] *= H; { P0[q1] }")
        assert set(task.register.names) == {"q1", "q3"}


class TestSession:
    def test_define_show_and_verify(self):
        session = Session()
        session.define("invN", qwalk_invariant().predicates[0].matrix)
        term = session.verify_proof("pf", ["q1", "q2"], QWALK_SOURCE)
        assert term.verified
        assert "while MQWalk" in session.show("pf")
        assert "1." in session.show("I") or "[[" in session.show("I")

    def test_show_unknown_term(self):
        with pytest.raises(AssistantError):
            Session().show("nothing")

    def test_load_from_npy(self, tmp_path):
        path = tmp_path / "inv.npy"
        np.save(path, qwalk_invariant().predicates[0].matrix)
        session = Session(base_path=tmp_path)
        session.load("invN", "inv.npy")
        assert "invN" in session.environment

    def test_run_script_end_to_end(self, tmp_path):
        inv_path = tmp_path / "invN.npy"
        np.save(inv_path, qwalk_invariant().predicates[0].matrix)
        script = f'''
        def invN := load "{inv_path}" end
        def pf := proof [ q1 q2 ] :
            {{ I [ q1 ] }};
            [ q1 q2 ] := 0;
            {{ inv : invN [ q1 q2 ] }};
            while MQWalk [ q1 q2 ] do
                ( [ q1 q2 ] *= W1 ; [ q1 q2 ] *= W2
                # [ q1 q2 ] *= W2 ; [ q1 q2 ] *= W1 )
            end;
            {{ Zero [ q1 ] }}
        end
        show pf end
        '''
        session = Session()
        outputs = session.run_script(script)
        assert any("verified" in output for output in outputs)
        assert session.proofs["pf"].verified


class TestCli:
    def test_cli_verifies_annotated_file(self, tmp_path, capsys):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P1[q] }; [q] *= X; { P0[q] }")
        exit_code = cli_main([str(source_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "verification: OK" in captured.out

    def test_cli_reports_failure(self, tmp_path, capsys):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P0[q] }; [q] *= X; { P0[q] }")
        exit_code = cli_main([str(source_path)])
        assert exit_code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_cli_with_operator_file(self, tmp_path, capsys):
        inv_path = tmp_path / "invN.npy"
        np.save(inv_path, qwalk_invariant().predicates[0].matrix)
        source_path = tmp_path / "walk.nqpv"
        source_path.write_text(QWALK_SOURCE)
        exit_code = cli_main([str(source_path), "--operator", f"invN={inv_path}"])
        assert exit_code == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_cli_missing_file(self, capsys):
        assert cli_main(["/does/not/exist.nqpv"]) == 2

    @pytest.mark.parametrize("flag", ["--backend", "--lifting"])
    def test_cli_rejects_removed_representation_flags(self, tmp_path, capsys, flag):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P1[q] }; [q] *= X; { P0[q] }")
        assert cli_main([str(source_path)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main([str(source_path), flag, "kraus"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "-1.0"])
    def test_cli_rejects_invalid_epsilon(self, tmp_path, capsys, epsilon):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P0[q] }; [q] *= X; { P0[q] }")
        assert cli_main([str(source_path), "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert "error: epsilon must be a finite non-negative number" in captured.err
        assert "verification:" not in captured.out

    def test_cli_script_mode(self, tmp_path, capsys):
        script_path = tmp_path / "script.nqpv"
        script_path.write_text(
            'def pf := proof [ q ] : { P1 [ q ] }; [ q ] *= X; { P0 [ q ] } end\nshow pf end\n'
        )
        exit_code = cli_main([str(script_path), "--script"])
        assert exit_code == 0
        assert "OK" in capsys.readouterr().out
