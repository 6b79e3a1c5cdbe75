import json
import subprocess
import sys

import pytest

from mcfgkit import build_grammar, chain, deleting_grammar, overgenerating_block_grammar
from mcfgkit import cli
from mcfgkit.cli import main
from mcfgkit.formats import format_grammar, format_preorder

CHAIN2_GRAMMAR = format_grammar(build_grammar(chain(2)))
CHAIN2_ORDER = format_preorder(chain(2))
CHAIN3_ORDER = format_preorder(chain(3))
DISCRETE2_ORDER = "m: 2\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---------------------------------------------------------------


def test_validate_accepts_a_clean_grammar(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "valid: yes" in out
    assert "dimension: 1" in out


def test_validate_flags_a_broken_grammar(write, capsys):
    path = write("g.mcfg", "S($1.1 $2.1) <- T($1.1)\nT(a) <-\n")
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "valid: no" in out


def test_validate_json_envelope(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {"command", "inputs", "result", "violations"}
    assert envelope["command"] == "validate"
    assert envelope["result"]["valid"] is True
    assert envelope["result"]["non_deleting"] is True
    assert envelope["violations"] == []


# --- recognize --------------------------------------------------------------


def test_recognize_accepts_and_rejects(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "recognize", path, "a1 a1 a2")
    assert (code, out.strip()) == (0, "accept")
    code, out, _ = run(capsys, "recognize", path, "a2")
    assert (code, out.strip()) == (1, "reject")


def test_recognize_parse_prints_a_tree(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "recognize", path, "a1 a2", "--parse")
    assert code == 0
    assert out.splitlines()[0] == "accept"
    assert "A(a1 $1.1 a2) <- A($1.1)" in out


def test_recognize_empty_word(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "recognize", path, "_")
    assert (code, out.strip()) == (0, "accept")


# --- enumerate --------------------------------------------------------------


def test_enumerate_lists_sorted_words(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "enumerate", path, "--max-len", "2")
    assert code == 0
    assert out.splitlines() == ["_", "a1", "a1 a1", "a1 a2"]


def test_enumerate_terms_mode(write, capsys):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, _ = run(capsys, "enumerate", path, "--max-len", "0", "--terms")
    assert code == 0
    assert out.splitlines() == ["A(_)", "S(_)"]


def test_enumerate_warns_about_deleting_grammars(write, capsys):
    path = write("g.mcfg", format_grammar(deleting_grammar()))
    code, out, err = run(capsys, "enumerate", path, "--max-len", "2")
    assert code == 0
    assert "lower bound" in err
    code, out, _ = run(capsys, "enumerate", path, "--max-len", "2", "--json")
    assert json.loads(out)["result"]["complete"] is False


# --- build-grammar and totalisations ----------------------------------------


def test_build_grammar_prints_the_grammar_file(write, capsys):
    path = write("p.ord", CHAIN2_ORDER)
    code, out, _ = run(capsys, "build-grammar", path)
    assert code == 0
    assert out == CHAIN2_GRAMMAR


def test_build_grammar_json(write, capsys):
    path = write("p.ord", CHAIN3_ORDER)
    code, out, _ = run(capsys, "build-grammar", path, "--json")
    result = json.loads(out)["result"]
    assert (code, result["dimension"], result["alphabet"]) == (0, 2, ["a1", "a2", "a3"])


def test_totalisations_count_and_listing(write, capsys):
    path = write("p.ord", DISCRETE2_ORDER)
    code, out, _ = run(capsys, "totalisations", path, "--count")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "totalisations", path)
    assert out.count("# totalisation") == 3
    code, out, _ = run(capsys, "totalisations", path, "--json")
    assert json.loads(out)["result"]["count"] == 3


# --- compare ----------------------------------------------------------------


def test_compare_agreeing_languages(write, capsys):
    grammar = write("g.mcfg", CHAIN2_GRAMMAR)
    order = write("p.ord", CHAIN2_ORDER)
    code, out, _ = run(capsys, "compare", grammar, order, "--max-len", "4")
    assert code == 0
    assert "agree: yes" in out


def test_compare_reports_missing_words(write, capsys):
    # drop the rule that grows a1 alone, losing every word with n1 > n2
    crippled = "\n".join(
        line for line in CHAIN2_GRAMMAR.splitlines() if line != "A(a1 $1.1) <- A($1.1)"
    )
    grammar = write("g.mcfg", crippled)
    order = write("p.ord", CHAIN2_ORDER)
    code, out, _ = run(capsys, "compare", grammar, order, "--max-len", "2")
    assert code == 1
    assert "agree: no" in out
    assert "only in direct listing (2):" in out
    assert "\n  a1\n" in out


# --- pump -------------------------------------------------------------------


def test_pump_reports_the_overgeneration(write, capsys):
    grammar = write("g.mcfg", format_grammar(overgenerating_block_grammar()))
    order = write("p.ord", CHAIN3_ORDER)
    code, out, _ = run(capsys, "pump", grammar, order, "a1 a1 a2 a2 a3 a3")
    assert code == 0
    assert "sites: 1" in out
    assert "delta: a1+0, a2+0, a3+1  (arithmetic ok)" in out
    assert "up yield:   a1 a1 a2 a2 a3 a3 a3  in grammar: yes  in order language: no" in out


def test_pump_without_sites(write, capsys):
    grammar = write("g.mcfg", CHAIN2_GRAMMAR)
    order = write("p.ord", CHAIN2_ORDER)
    code, out, _ = run(capsys, "pump", grammar, order, "a1 a2")
    assert code == 0
    assert "sites: 0" in out


def test_pump_rejected_word_is_an_error(write, capsys):
    grammar = write("g.mcfg", CHAIN2_GRAMMAR)
    order = write("p.ord", CHAIN2_ORDER)
    code, _, err = run(capsys, "pump", grammar, order, "a2 a1")
    assert code == 2
    assert err.startswith("error:")


# --- error handling and stability -------------------------------------------


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/g.mcfg")
    assert code == 2
    assert err.startswith("error:")


def test_internal_errors_exit_2(write, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_recognize", crash)
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    code, out, err = run(capsys, "recognize", path, "a1")
    assert (code, out) == (2, "")
    assert "internal error: RuntimeError: boom" in err


def test_syntax_errors_carry_positions(write, capsys):
    path = write("g.mcfg", "S(a\n")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert f"{path}:1:" in err


def test_json_output_is_byte_stable(write, capsys):
    grammar = write("g.mcfg", format_grammar(overgenerating_block_grammar()))
    order = write("p.ord", CHAIN3_ORDER)
    argv = ("pump", grammar, order, "a1 a2 a3", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_module_entry_point(write, tmp_path):
    path = write("g.mcfg", CHAIN2_GRAMMAR)
    done = subprocess.run(
        [sys.executable, "-m", "mcfgkit.cli", "recognize", path, "a1"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "accept"
