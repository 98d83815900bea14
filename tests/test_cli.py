"""CLI surface: subcommands, exit codes, JSON payloads, format round-trips."""

import json

import pytest

from nodalcodes.cli import main
from nodalcodes.codes import code_from_dict
from nodalcodes.nodes import config_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_example(capsys):
    code, out, _ = run(capsys, "bounds", "--degree", "8", "--mu", "168")
    assert code == 0
    assert "beauville 18" in out
    assert "improved 19" in out


def test_bounds_paper_closed_form(capsys):
    code, out, _ = run(capsys, "bounds", "--degree", "8", "--mu", "168", "--paper-closed-form")
    assert code == 0
    assert "beauville 16" in out


def test_classify_mu14_json(capsys):
    code, out, _ = run(capsys, "classify-quartic", "--mu", "14", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["entries"][0]["profile"] == "[14,4,{6_4,8,10}]"
    # the emitted code block round-trips through the code file format
    code_obj = code_from_dict(payload["entries"][0]["code"])
    assert code_obj.dim == 4


def test_classify_audit_lists_exclusions(capsys):
    code, out, _ = run(capsys, "classify-quartic", "--mu", "12", "--audit", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["excluded_by_dimension_bounds"]) == 3


def test_defect_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--degree", "4", "--nodes", "missing.json")
    assert code == 2
    assert "error" in err


def test_defect_from_counts(capsys):
    code, out, _ = run(capsys, "defect", "--degree", "6", "--mu", "65", "--dim-m", "4", "--json")
    assert code == 0
    assert json.loads(out)["defect"] == 13


def test_defect_incomplete_inputs_exit_2(capsys):
    code, _, _ = run(capsys, "defect", "--degree", "4")
    assert code == 2  # parsed fine, but incomplete inputs are a data problem


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_missing_required_flag_exits_1(capsys):
    code, _, _ = run(capsys, "bounds", "--degree", "8")
    assert code == 1


def test_vanishing_dim(tmp_path, capsys):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({
        "degree": 4,
        "field": "rational",
        "nodes": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    }))
    code, out, _ = run(capsys, "vanishing-dim", "--nodes", str(path), "--degree", "2", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 8


def test_verify_nodes_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "degree": 2,
        "field": "rational",
        "surface": "x^2 + y^2 + z^2",
        "nodes": [["0", "0", "0", "1"]],
    }))
    code, out, _ = run(capsys, "verify-nodes", "--nodes", str(good))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 2,
        "field": "rational",
        "surface": "x^2 + y^2 + z^2",
        "nodes": [["0", "0", "0", "1"], ["0", "0", "1", "1"]],
    }))
    code, out, _ = run(capsys, "verify-nodes", "--nodes", str(bad), "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["all_nodes"] is False


def test_verify_nodes_without_surface_exits_2(tmp_path, capsys):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({
        "degree": 4, "field": "rational", "nodes": [["1", "0", "0", "0"]],
    }))
    code, _, err = run(capsys, "verify-nodes", "--nodes", str(path))
    assert code == 2


def test_verify_nodes_surface_flag(tmp_path, capsys):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({
        "degree": 2, "field": "rational", "nodes": [["0", "0", "0", "1"]],
    }))
    surface = tmp_path / "surface.txt"
    surface.write_text("x^2 + y^2 + z^2\n")
    code, _, _ = run(capsys, "verify-nodes", "--nodes", str(nodes),
                     "--surface", str(surface))
    assert code == 0


def test_code_info_and_isomorphic(tmp_path, capsys):
    a = {"mu": 12, "generators": [
        {"parity": "strict", "support": [0, 1, 2, 3, 4, 5, 6, 7]},
        {"parity": "strict", "support": [0, 1, 2, 3, 8, 9, 10, 11]},
    ]}
    b = {"mu": 12, "generators": [
        {"parity": "strict", "support": [4, 5, 6, 7, 8, 9, 10, 11]},
        {"parity": "strict", "support": [0, 1, 2, 3, 8, 9, 10, 11]},
    ]}
    c = {"mu": 12, "generators": [
        {"parity": "weak", "support": [0, 1, 2, 3, 4, 5]},
        {"parity": "strict", "support": [2, 3, 4, 5, 6, 7, 8, 9]},
    ]}
    pa, pb, pc = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    pc.write_text(json.dumps(c))

    code, out, _ = run(capsys, "code", "info", str(pa), "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 2

    code, out, _ = run(capsys, "code", "isomorphic", str(pa), str(pb))
    assert code == 0
    assert "isomorphic" in out

    code, out, _ = run(capsys, "code", "isomorphic", str(pa), str(pc))
    assert code == 3
    assert "not isomorphic" in out

    code, out1, _ = run(capsys, "code", "canonical", str(pa))
    assert code == 0
    code, out2, _ = run(capsys, "code", "canonical", str(pb))
    assert out1 == out2


def test_symmetroid_scan_seeded(capsys):
    code, out, _ = run(capsys, "symmetroid-scan", "--seed", "1", "--prime", "31", "--json")
    payload = json.loads(out)
    if not payload["scan"]["degenerate"] and payload["scan"]["count"] == 10:
        assert code == 0
        assert payload["certificate"]["no_quadric_certified"] is True
    # matrix block round-trips through the matrix file format
    from nodalcodes.symmetroid import matrix_from_dict

    matrix_from_dict(payload["matrix"])


def test_symmetroid_scan_requires_input(capsys):
    code, _, err = run(capsys, "symmetroid-scan")
    assert code == 2


def _scan_matrix_file(tmp_path, capsys, payload):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(payload))
    return run(capsys, "symmetroid-scan", "--matrix", str(path))


def test_symmetroid_scan_non_string_entry(tmp_path, capsys):
    code, _, err = _scan_matrix_file(tmp_path, capsys, {"prime": 7, "upper_triangle": [1] * 10})
    assert code == 2 and "Traceback" not in err and err.startswith("error:")


def test_symmetroid_scan_non_list_entries(tmp_path, capsys):
    code, _, err = _scan_matrix_file(tmp_path, capsys, {"prime": 7, "upper_triangle": 5})
    assert code == 2 and "Traceback" not in err and err.startswith("error:")


def test_symmetroid_scan_non_integer_prime(tmp_path, capsys):
    code, _, err = _scan_matrix_file(tmp_path, capsys, {"prime": "7", "upper_triangle": ["x"] * 10})
    assert code == 2 and "Traceback" not in err and err.startswith("error:")


def test_symmetroid_scan_negative_seed(capsys):
    code, _, err = run(capsys, "symmetroid-scan", "--seed", "-1")
    assert code == 2 and "Traceback" not in err and err.startswith("error:")


def test_symmetroid_scan_seed_prime_above_cap(capsys):
    huge = str(2**127 - 1)
    for extra in ((), ("--uniform",)):
        code, _, err = run(capsys, "symmetroid-scan", "--seed", "0", "--prime", huge, *extra)
        assert code == 2 and "Traceback" not in err and err.startswith("error:")


@pytest.mark.parametrize("argv, payload", [
    (["vanishing-dim", "--nodes"], {"degree": 4, "nodes": 7}),
    (["vanishing-dim", "--nodes"], {"degree": 4, "nodes": [7]}),
    (["verify-nodes", "--nodes"], {"degree": 4, "nodes": [["1", "0", "0", "0"]], "surface": 5}),
    (["code", "canonical"], {"mu": 16, "generators": 5}),
    (["defect", "--nodes"], {"degree": 40000, "nodes": [["1", "0", "0", "0"]]}),
], ids=["nodes-not-list", "node-not-list", "surface-not-string", "generators-not-list",
        "form-degree-above-cap"])
def test_malformed_files_exit_2(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2 and "Traceback" not in err and err.startswith("error:")


def test_hilbert_check(capsys):
    code, out, _ = run(capsys, "hilbert-check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["coefficients"][:6] == [0, 0, 0, 10, 25, 46]


def test_json_output_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "classify-quartic", "--mu", "12", "--json")
    _, out2, _ = run(capsys, "classify-quartic", "--mu", "12", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "symmetroid-scan", "--seed", "2", "--prime", "13", "--json")
    _, out4, _ = run(capsys, "symmetroid-scan", "--seed", "2", "--prime", "13", "--json")
    assert out3 == out4


def test_node_file_json_round_trip(tmp_path, capsys):
    payload = {
        "degree": 4,
        "field": {"prime": 7},
        "nodes": [["1", "2", "3", "4"], ["0", "1", "2", "3"]],
    }
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(payload))
    cfg = config_from_dict(payload)
    assert cfg.mu == 2
    code, out, _ = run(capsys, "vanishing-dim", "--nodes", str(path), "--degree", "1", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 2
