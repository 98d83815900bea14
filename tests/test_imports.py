"""Import path: the package loads nothing outside the standard library.

Checks of what an import loads run in a fresh interpreter, because the
test session itself has already imported the test tools and numpy, the
oracle for the seeded generators' draws.
"""

import json
import os
import subprocess
import sys

import pytest

import nodalcodes
from nodalcodes.cli import main


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(nodalcodes.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_package_imports_only_the_standard_library():
    proc = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nodalcodes, nodalcodes.cli, nodalcodes.symmetroid\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'nodalcodes'}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", [
    "ScanResult",
    "SymmetricLinearMatrix",
    "no_quadric_certificate",
    "random_symmetric_matrix",
    "random_symmetroid_matrix",
    "scan_nodes_fp",
])
def test_scanner_name_is_the_symmetroid_object(name):
    from nodalcodes import symmetroid

    assert vars(nodalcodes)[name] is getattr(symmetroid, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nodalcodes' has no attribute 'no_such_name'"):
        nodalcodes.no_such_name
    assert not hasattr(nodalcodes, "minors_vanish_at")


def _input_files(tmp_path) -> dict:
    files = {
        "nodes": {"degree": 4, "field": "rational",
                  "nodes": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
        "surface_nodes": {"degree": 2, "field": "rational", "surface": "x^2 + y^2 + z^2",
                          "nodes": [["0", "0", "0", "1"], ["0", "0", "1", "1"]]},
        "code_a": {"mu": 12, "generators": [
            {"parity": "strict", "support": [0, 1, 2, 3, 4, 5, 6, 7]},
            {"parity": "strict", "support": [0, 1, 2, 3, 8, 9, 10, 11]}]},
        "code_b": {"mu": 12, "generators": [
            {"parity": "strict", "support": [4, 5, 6, 7, 8, 9, 10, 11]},
            {"parity": "strict", "support": [0, 1, 2, 3, 8, 9, 10, 11]}]},
        "bad_code": {"mu": 12, "generators": 5},
        "matrix": {"prime": 13, "upper_triangle": [
            "x + 2*y", "3*z", "w", "x + w", "y", "5*x + z", "2*w", "x + y + z", "7*y", "w + 4*z"]},
        "x_identity": {"prime": 31, "upper_triangle": [
            "x", "0", "0", "0", "x", "0", "0", "x", "0", "x"]},
    }
    paths = {}
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def _calls(paths: dict) -> list[list[str]]:
    return [
        ["bounds", "--degree", "8", "--mu", "168", "--json"],
        ["bounds", "--degree", "8", "--mu", "168", "--paper-closed-form"],
        ["defect", "--degree", "6", "--mu", "65", "--dim-m", "4", "--json"],
        ["defect", "--nodes", paths["nodes"], "--json"],
        ["hilbert-check", "--json"],
        ["classify-quartic", "--mu", "12", "--json"],
        ["code", "info", paths["code_a"], "--json"],
        ["code", "canonical", paths["code_a"]],
        ["code", "isomorphic", paths["code_a"], paths["code_b"]],
        ["code", "info", paths["bad_code"]],
        ["vanishing-dim", "--nodes", paths["nodes"], "--degree", "2", "--json"],
        ["verify-nodes", "--nodes", paths["surface_nodes"], "--json"],
        ["symmetroid-scan", "--seed", "1", "--prime", "101", "--json"],
        ["symmetroid-scan", "--seed", "4", "--prime", "31", "--uniform", "--json"],
        ["symmetroid-scan", "--matrix", paths["matrix"], "--json"],
        ["symmetroid-scan", "--matrix", paths["x_identity"]],
    ]


def test_subcommands_run_with_numpy_blocked(tmp_path, capsys):
    calls = _calls(_input_files(tmp_path))
    expected = []
    for argv in calls:
        code = main(argv)
        expected.append([code, capsys.readouterr().out])
    proc = _python(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from nodalcodes.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    out.append([code, buf.getvalue()])\n"
        "print(json.dumps(out))",
        json.dumps(calls),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == len(calls)
    for argv, want, have in zip(calls, expected, got):
        assert have == want, argv
    assert {code for code, _ in expected} == {0, 2, 3}
