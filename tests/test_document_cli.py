import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from outgrowth import (
    InputError,
    bundled_names,
    bundled_text,
    emit_document,
    load_bundled,
    parse_document,
    verify_representative,
)
from outgrowth.cli import main
from conftest import tower_text

IDENTITY_DOC = """
[presentation]
free = a b
[graph]
vertices = v0
base = v0
edge a = v0 v0 1.0
edge b = v0 v0 1.0
marking a = a
marking b = b
[automorphism]
free a = a
free b = b
[inverse]
free a = a
free b = b
[map]
vertex v0 = v0
edge a = a
edge b = b
tether =
"""


# -- parsing and round trips -----------------------------------------------------


def test_all_bundled_parse_and_verify():
    for name in bundled_names():
        doc = load_bundled(name)
        assert doc.representative is not None
        assert verify_representative(doc.representative) == []


def test_round_trip_is_identity_on_bundled():
    for name in bundled_names():
        text = bundled_text(name)
        once = emit_document(parse_document(text))
        twice = emit_document(parse_document(once))
        assert once == twice


def test_round_trip_identity_doc():
    once = emit_document(parse_document(IDENTITY_DOC))
    assert emit_document(parse_document(once)) == once


def test_round_trip_extended_generators():
    doc_text = IDENTITY_DOC.replace(
        "free = a b", "free = a b\nrelative-generators = a b, b\nsearch-budget = 6"
    )
    doc = parse_document(doc_text)
    assert doc.group.relative_generators is not None
    assert doc.group.search_budget == 6
    once = emit_document(doc)
    assert "relative-generators = a b, b" in once
    assert emit_document(parse_document(once)) == once


def test_empty_document_rejected():
    with pytest.raises(InputError, match="empty document"):
        parse_document("")


def test_zero_length_edge_names_edge():
    bad = IDENTITY_DOC.replace("edge b = v0 v0 1.0", "edge b = v0 v0 0")
    with pytest.raises(InputError, match="'b'"):
        parse_document(bad)


def test_unknown_edge_reference_positional():
    bad = IDENTITY_DOC.replace("marking b = b", "marking b = c")
    with pytest.raises(InputError, match="line"):
        parse_document(bad)


def test_duplicate_key_rejected():
    bad = IDENTITY_DOC.replace("free a = a\n", "free a = a\nfree a = b\n", 1)
    with pytest.raises(InputError, match="duplicate"):
        parse_document(bad)


def test_missing_inverse_section_rejected():
    bad = IDENTITY_DOC.replace("[inverse]\nfree a = a\nfree b = b\n", "")
    with pytest.raises(InputError, match="inverse"):
        parse_document(bad)


THETA_SWAP_DOC = """
[presentation]
free = a b
[graph]
vertices = v0 v1
base = v0
edge e = v0 v1 1.0
edge f = v0 v1 1.0
edge g = v0 v1 1.0
marking a = e f'
marking b = e g'
[automorphism]
free a = a'
free b = b'
[inverse]
free a = a'
free b = b'
[map]
vertex v0 = v1
vertex v1 = v0
edge e = e'
edge f = f'
edge g = g'
tether = e
"""


def test_vertex_swapping_map_with_tether():
    # reversing all three parallel edges inverts both generators; the base
    # moves, so the marking identity is checked through the tether
    doc = parse_document(THETA_SWAP_DOC)
    assert verify_representative(doc.representative) == []
    a = doc.group.free(0)
    assert doc.automorphism.apply(a) == a.inverse()
    once = emit_document(doc)
    assert emit_document(parse_document(once)) == once


def test_twist_conjugator_round_trip():
    text = bundled_text("c3c3_swap").replace(
        "twist vP = 0 1 2", "twist vP = 0 1 2\ntwist-conjugator vP = Q:1"
    )
    doc = parse_document(text)
    # conjugation inside the abelian factor is invisible, so this still verifies
    assert verify_representative(doc.representative) == []
    assert doc.representative.vertex_conjugators == {1: 1}
    once = emit_document(doc)
    assert "twist-conjugator vP = Q:1" in once
    assert emit_document(parse_document(once)) == once


def test_factor_table_document():
    text = """
[presentation]
factors = S
[factor S]
table = 0 1 2 3 4 5 / 1 0 4 5 2 3 / 2 5 0 4 3 1 / 3 4 5 0 1 2 / 4 3 1 2 5 0 / 5 2 3 1 0 4
[graph]
vertices = v0 vS
base = v0
vertex vS = S
edge s = v0 vS 0.5
edge x = v0 v0 1.0
marking S = s
[automorphism]
factor S = S : 0 1 2 3 4 5
[inverse]
factor S = S : 0 1 2 3 4 5
"""
    # the table above is S3 written as a multiplication table
    doc = parse_document(text.replace("[graph]", "[presentation-end]\n[graph]").replace("[presentation-end]\n", ""))
    assert doc.group.factors[0].order == 6
    assert doc.representative is None


# -- CLI ------------------------------------------------------------------------------


runner = CliRunner()


def test_cli_examples_lists_bundled():
    result = runner.invoke(main, ["examples"])
    assert result.exit_code == 0
    for name in bundled_names():
        assert name in result.output


def test_cli_analyze_golden():
    result = runner.invoke(main, ["analyze", "golden_ratio_rose"])
    assert result.exit_code == 0
    assert "top eigenvalue: 1.618033988" in result.output
    assert "illegal in 1 step" in result.output


def test_cli_analyze_json_structure():
    result = runner.invoke(main, ["analyze", "golden_ratio_rose", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report"]["top_stratum"] == 1
    assert payload["report"]["transition_matrix"] == [[0, 1], [1, 1]]


def test_cli_growth_polynomial_flags():
    result = runner.invoke(
        main,
        ["growth", "polynomial_rose", "--element", "b", "--iterations", "30"],
    )
    assert result.exit_code == 0
    assert "unconverged-to-1-from-above" in result.output
    payload = runner.invoke(
        main,
        ["growth", "polynomial_rose", "--element", "b", "--iterations", "30", "--format", "json"],
    )
    record = json.loads(payload.output)["report"]
    assert record["estimate"] <= 1.2


def test_cli_verify_identity_fixture(tmp_path):
    path = tmp_path / "identity.gog"
    path.write_text(IDENTITY_DOC)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert "train track: pass" in result.output
    assert "FAIL" not in result.output


def test_cli_verify_polynomial_reports_germ_failure():
    result = runner.invoke(main, ["verify", "polynomial_rose"])
    assert result.exit_code == 0
    assert "germs FAIL (edge b)" in result.output


def test_cli_displacement_csv():
    result = runner.invoke(
        main, ["displacement", "golden_ratio_rose", "--format", "csv", "--sample", "a,b"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1] == "N,lipschitz,witness_edge"
    assert len(lines) == 6


def test_cli_bound_and_sweep():
    result = runner.invoke(main, ["bound", "c2f2_mixed", "--element", "a"])
    assert result.exit_code == 0
    assert "overall: pass" in result.output
    result = runner.invoke(main, ["sweep", "polynomial_rose"])
    assert result.exit_code == 0
    assert "Lip=1.001" in result.output


@pytest.mark.parametrize(
    "command,grid",
    [
        ("displacement", ","),
        ("displacement", "inf"),
        ("sweep", "inf"),
        ("sweep", "1e400"),
        ("sweep", "nan"),
        ("sweep", "0"),
        ("displacement", "1,-10"),
        ("sweep", "1e-310"),
    ],
)
def test_cli_rejects_bad_n_grid(command, grid):
    result = runner.invoke(main, [command, "polynomial_rose", "--n-grid", grid, "--format", "json"])
    assert result.exit_code == 2
    assert json.loads(result.output)["report"]["error"]["type"] == "InputError"


def test_cli_sweep_and_displacement_past_the_float_range_of_n_to_the_r(tmp_path):
    # N^r overflows a float at N = 1000 from r = 103 on; the tower has 110 strata
    path = tmp_path / "tower110.gog"
    path.write_text(tower_text(110))
    result = runner.invoke(main, ["sweep", str(path), "--format", "json"])
    assert result.exit_code == 0
    rows = [(r["N"], r["lipschitz"]) for r in json.loads(result.output)["report"]["rows"]]
    args = ["displacement", str(path), "--sample", "a110", "--iterations", "6", "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    rows += [(r["N"], r["lip"]) for r in json.loads(result.output)["report"]["lipschitz"]]
    assert [n for n, _ in rows] == [1.0, 10.0, 100.0, 1000.0] * 2
    for n, lip in rows:
        assert lip == pytest.approx((n + 1) / n, rel=1e-12, abs=0.0)


def test_readme_command_lines_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "outgrowth"]
    assert len(commands) >= 7
    for argv in commands:
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)


def test_cli_deterministic_output():
    args = ["analyze", "c2f2_mixed", "--format", "json"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_cli_exit_code_validation():
    result = runner.invoke(main, ["analyze", "no_such_thing"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["growth", "golden_ratio_rose", "--element", "zz"])
    assert result.exit_code == 2


def test_cli_exit_code_resource_guard():
    result = runner.invoke(
        main,
        [
            "growth",
            "golden_ratio_rose",
            "--element",
            "a",
            "--iterations",
            "40",
            "--guard",
            "200",
        ],
    )
    assert result.exit_code == 4


def test_cli_exit_code_nonconvergence(tmp_path):
    text = IDENTITY_DOC.replace(
        "free = a b", "free = a b\nrelative-generators = a, b\nsearch-budget = 2"
    )
    path = tmp_path / "tight.gog"
    path.write_text(text)
    result = runner.invoke(
        main,
        ["growth", str(path), "--element", "a a a a a", "--length", "relative"],
    )
    assert result.exit_code == 3


def test_cli_validation_failure_on_broken_map(tmp_path):
    bad = IDENTITY_DOC.replace("edge a = a\n", "edge a = b\n", 1)
    path = tmp_path / "bad.gog"
    path.write_text(bad)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2
    assert "marking" in result.output
