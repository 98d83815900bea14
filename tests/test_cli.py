"""CLI surface: subcommands, exit codes, JSON payloads, format round-trips."""

import gc
import importlib.metadata
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes import cli
from nodalcodes.cli import main
from nodalcodes.codes import code_from_dict
from nodalcodes.forms import DEGREE_CAP
from nodalcodes.nodes import config_from_dict
from nodalcodes.series import ORDER_CAP
from conftest import child_env
from golden.regenerate import ANSWERS, resolve, summarize, write_inputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_mu14_json(capsys):
    code, out, _ = run(capsys, "classify-quartic", "--mu", "14", "--json")
    assert code == 0
    # the emitted code block round-trips through the code file format; the
    # payload itself is a pinned answer
    entry = json.loads(out)["entries"][0]
    assert code_from_dict(entry["code"]).dim == entry["dim"] == 4


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


@pytest.mark.parametrize("degree, form_degree, dimension", [(3, 0, 0), (4, 2, 8), (5, 3, 18)])
def test_vanishing_dim_defaults_to_the_defect_form_degree(tmp_path, capsys, degree, form_degree,
                                                          dimension):
    # 3b/2 - 4, rounded down for an odd surface degree; the two nodes
    # leave C(d + 3, 3) - 2 forms of degree d, none at d = 0
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"degree": degree, "nodes": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}))
    code, out, _ = run(capsys, "vanishing-dim", "--nodes", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"mu": 2, "form_degree": form_degree, "dimension": dimension}


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
    # the Cayley cubic's four nodes, against a surface written with implicit
    # products, spaces and a leading '+'
    nodes.write_text(json.dumps({"degree": 3, "field": "rational", "nodes": [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}))
    surface.write_text("+ y z w + 2 x z w + 3xyw + 5 x*y*z\n")
    code, out, _ = run(capsys, "verify-nodes", "--nodes", str(nodes), "--surface", str(surface),
                       "--json")
    assert code == 0 and json.loads(out)["all_nodes"] is True


@pytest.mark.parametrize("degree, expected", [(100_000_000, 2), (DEGREE_CAP, 3)],
                         ids=["degree-1e8", "at-cap"])
def test_verify_nodes_high_degree_surface_is_fast(tmp_path, capsys, degree, expected):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({
        "degree": degree, "field": "rational",
        "surface": f"x^{degree} + 3*y^{degree} - 5/7*z^{degree} + x^{degree - 2}*y*w",
        "nodes": [["123457/99991", "65537", "1000003", "7/11"], ["1", "2", "3", "4"]],
    }))
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-nodes", "--nodes", str(path))
    assert time.perf_counter() - start < 1
    assert code == expected
    if expected == 2:
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert str(DEGREE_CAP) in err


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


def test_every_generator_order_gives_one_code(tmp_path, capsys):
    # a code is its span: every order of four generators, with or without
    # a redundant fifth (the sum of two of them), gives one EvenSetCode,
    # one hash and byte-identical `code info --json` output
    gens = [
        {"parity": "weak", "support": [0, 1, 2, 3, 4, 5]},
        {"parity": "strict", "support": [0, 1, 2, 3, 4, 5, 6, 7]},
        {"parity": "strict", "support": [4, 5, 6, 7, 8, 9, 10, 11]},
        {"parity": "weak", "support": [0, 1, 2, 3, 8, 9]},
    ]
    redundant = {"parity": "weak", "support": [0, 1, 2, 3, 6, 7, 8, 9, 10, 11]}
    orders = [list(order) for order in itertools.permutations(gens)]
    orders += [order[:i] + [redundant] + order[i:] for i, order in enumerate(orders[::5])]
    codes, outputs = set(), set()
    for order in orders:
        data = {"mu": 12, "generators": order}
        codes.add(code_from_dict(data))
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "code", "info", str(path), "--json")
        assert code == 0 and json.loads(out)["dim"] == 4
        outputs.add(out)
    assert len(codes) == 1 and len({hash(c) for c in codes}) == 1
    assert len(outputs) == 1


def _quadratic_residue_code(tmp_path):
    # the 23 cyclic shifts of {0} and the squares mod 23, all strict; every
    # shift has weight 12, so the overall parity node 23 stays empty
    support = {0} | {i * i % 23 for i in range(1, 23)}
    gens = [
        {"parity": "strict", "support": sorted((x + s) % 23 for x in support)}
        for s in range(23)
    ]
    path = tmp_path / "qr24.json"
    path.write_text(json.dumps({"mu": 24, "generators": gens}))
    assert code_from_dict(json.loads(path.read_text())).dim == 11
    return str(path)


@pytest.mark.parametrize("sub", ["canonical", "isomorphic"])
def test_canonical_search_over_its_state_cap_exits_2(tmp_path, capsys, sub):
    path = _quadratic_residue_code(tmp_path)
    argv = ["code", sub, path] + ([path] if sub == "isomorphic" else [])
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 15
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["symmetroid-scan", "--seed", "1", "--prime", "101", "--json"],
    ["bounds", "--degree", "8", "--mu", "168"],
], ids=["scan-json", "bounds"])
def test_closed_stdout_exits_141_quietly(argv):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nodalcodes.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_reader_that_stops_early_gets_exit_141_quietly(tmp_path):
    # like `| head -1`: the 10 303 points of the plane x = 0 at p = 101 are far
    # more JSON than a pipe holds, so a write fails after the reader is gone
    matrix = tmp_path / "x_identity.json"
    matrix.write_text(json.dumps({"prime": 101, "upper_triangle": ["x", "0", "0", "0", "x", "0",
                                                                   "0", "x", "0", "x"]}))
    with subprocess.Popen([sys.executable, "-m", "nodalcodes.cli", "symmetroid-scan", "--matrix",
                           str(matrix), "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    assert (proc.returncode, stderr) == (141, b"")


def test_process_entry_gives_the_pinned_answers(tmp_path):
    # `python -m nodalcodes.cli` leaves through run(): one pinned call per exit
    # code 0, 1, 2 and 3 (the tests above cover 141), then one call through each
    # handler that imports its modules itself, each in a fresh process,
    # summarized as the pins are
    write_inputs(str(tmp_path))
    with open(ANSWERS, encoding="utf-8") as fh:
        pinned = {tuple(e["argv"]): e for e in json.load(fh)}
    for argv in (["bounds", "--degree", "8", "--mu", "168"], ["frobnicate"],
                 ["bounds", "--degree", "5", "--mu", "3"],
                 ["verify-nodes", "--nodes", "@cayley_fail.json"],
                 ["symmetroid-scan", "--seed", "1", "--prime", "101"],
                 ["symmetroid-scan", "--matrix", "@x_identity_7.json"],
                 ["defect", "--nodes", "@nodes_b6_q_cubic.json"],
                 ["verify-nodes", "--nodes", "@cayley_no_surface.json", "--surface", "@surface_ok.txt"]):
        proc = subprocess.run([sys.executable, "-m", "nodalcodes.cli",
                               *resolve(argv, str(tmp_path))],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        want = {k: v for k, v in pinned[tuple(argv)].items() if k != "argv"}
        assert summarize(proc.returncode, proc.stdout, proc.stderr) == want, argv
    try:
        dist = importlib.metadata.distribution("nodalcodes")
    except importlib.metadata.PackageNotFoundError:
        return  # run from source: there is no console script
    (script,) = [e for e in dist.entry_points
                 if (e.group, e.name) == ("console_scripts", "nodalcodes")]
    assert script.value == "nodalcodes.cli:run"


def test_run_freezes_after_main_and_main_never_does(monkeypatch, capsys):
    frozen = gc.get_freeze_count()
    assert main(["bounds", "--degree", "8", "--mu", "168"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    # each freeze records what was printed before it
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["nodalcodes", "hilbert-check"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert len(freezes) == 1 and freezes[0].endswith("(in particular no quadric: coefficient 0 at t^2)\n")


_SURVEY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "scan_seed_survey.py")


def test_scan_survey_script_times_the_scan_and_refuses_bad_input():
    ok = subprocess.run([sys.executable, _SURVEY, "--prime", "13", "--seeds", "2"],
                        capture_output=True, text=True, env=child_env(), timeout=120)
    assert (ok.returncode, ok.stderr) == (0, "")
    lines = ok.stdout.splitlines()
    for seed in range(2):
        assert re.fullmatch(rf"seed   {seed}:   10 point\(s\) \[scan \d+\.\d ms\]"
                            r"  quadric-evaluation rank 10  certified", lines[seed])
    assert lines[-1] == "2 seeds at p=13: 2 ten-point certified, 0 degenerate"
    # p = 3 has no six points with no four coplanar; 2000 is above the scan's cap
    for argv in (["--prime", "3"], ["--prime", "2000"], ["--prime", "9"], ["--seeds", "-1"]):
        bad = subprocess.run([sys.executable, _SURVEY, *argv], capture_output=True, text=True,
                             env=child_env(), timeout=120)
        assert (bad.returncode, bad.stdout) == (2, ""), argv
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, argv


_NODES = [["1", "0", "0", "0"]]
_CODE = {"mu": 6, "generators": [{"parity": "weak", "support": [0, 1, 2, 3, 4, 5]}]}
_PLANE_NODE = {"degree": 2, "field": "rational", "nodes": [["0", "0", "0", "1"]]}
_FILE_FLAGS = {"node": "defect --nodes", "code": "code info", "matrix": "symmetroid-scan --matrix"}

# Each refusal: (id, argv, input files, stderr text).  The argv reads
# "@name" for the path of input file ``name``, as in golden/regenerate.py;
# a file is JSON or raw bytes, and a name with no file is a missing path.
# Every row exits 2 with empty stdout and one line "error: <text>"; a text
# ending in "..." pins only the start of a line that goes on with a Python
# exception message.
_REFUSALS = [
    ("odd-degree", "defect --nodes @in.json", {"in.json": {"degree": 5, "nodes": _NODES}},
     "branch degree must be even, got 5"),
    ("degree-0", "vanishing-dim --nodes @in.json", {"in.json": {"degree": 0, "nodes": _NODES}},
     "surface degree must be positive, got 0"),
    ("form-degree-negative", "vanishing-dim --nodes @in.json --degree -1",
     {"in.json": {"degree": 4, "nodes": _NODES}}, "degree must be non-negative, got -1"),
    ("defect-degree-0", "defect --degree 0 --mu 1 --dim-m 0", {},
     "branch degree must be at least 2, got 0"),
    ("defect-mu-negative", "defect --degree 6 --mu -1 --dim-m 0", {},
     "mu and dim_m must be non-negative"),
    ("field-foo", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": "foo", "nodes": _NODES}},
     "bad field spec 'foo'; use \"rational\" or {\"prime\": p}"),
    ("bounds-degree-2", "bounds --degree 2 --mu 5", {}, "branch degree must be at least 4, got 2"),
    ("bounds-mu-negative", "bounds --degree 8 --mu -1", {}, "mu must be non-negative, got -1"),
    ("f7-denominator-7", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 7}, "nodes": [["1/7", "0", "0", "1"]]}},
     "denominator 7 is divisible by 7"),
    ("f7-abc", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 7}, "nodes": [["abc", "0", "0", "1"]]}},
     "not a scalar: 'abc'"),
    ("f7-over-x", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 7}, "nodes": [["1/x", "0", "0", "1"]]}},
     "not a scalar: '1/x'"),
    ("rational-nan", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "nodes": [["nan", "0", "0", "1"]]}}, "not a rational number: 'nan'"),
    ("rational-over-0", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "nodes": [["1/0", "0", "0", "1"]]}}, "not a rational number: '1/0'"),
    ("field-prime-string", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": "7"}, "nodes": _NODES}},
     "prime must be an integer, got '7'"),
    ("matrix-prime-string", "symmetroid-scan --matrix @in.json",
     {"in.json": {"prime": "7", "upper_triangle": ["x"] * 10}}, "prime must be an integer, got '7'"),
    ("code-without-mu", "code info @in.json", {"in.json": {"generators": []}},
     "code file is missing 'mu'"),
    ("generator-is-a-list", "code info @in.json",
     {"in.json": {"mu": 6, "generators": [[0, 1, 2, 3]]}}, "bad generator entry [0, 1, 2, 3]"),
    ("weak-empty-set-in-span", "code info @in.json", {"in.json": {"mu": 6, "generators": [
        {"parity": "strict", "support": [0, 1, 2]}, {"parity": "weak", "support": [0, 1, 2]}]}},
     "parity is not a linear functional of the support"),
    # JSON booleans are not integers, and a JSON float is not a coordinate:
    # 0.1 + 0.2 is not 3/10, and 1e-400 would read as 0
    ("bool-code-mu", "code info @in.json", {"in.json": {"mu": True, "generators": []}},
     "mu must be a non-negative integer"),
    ("bool-code-support", "code info @in.json",
     {"in.json": {"mu": 4, "generators": [{"parity": "strict", "support": [True, 1]}]}},
     "node index True is not an integer"),
    ("bool-vanishing-dim-degree", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": True, "nodes": _NODES}}, "degree must be an integer"),
    ("bool-defect-degree", "defect --nodes @in.json", {"in.json": {"degree": True, "nodes": _NODES}},
     "degree must be an integer"),
    ("bool-field-prime", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": True}, "nodes": _NODES}},
     "prime must be an integer, got True"),
    ("q-float-coordinate", "defect --nodes @in.json",
     {"in.json": {"degree": 4, "nodes": [[0.30000000000000004, "1", "0", "0"]]}},
     "node coordinate must be a string or an integer, got float"),
    ("q-bool-coordinate", "defect --nodes @in.json",
     {"in.json": {"degree": 4, "nodes": [["1", True, "0", "0"]]}},
     "node coordinate must be a string or an integer, got bool"),
    ("fp-float-coordinate", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 7}, "nodes": [[5.0, 1, 0, 0]]}},
     "node coordinate must be a string or an integer, got float"),
    ("fp-bool-coordinate", "vanishing-dim --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 7}, "nodes": [[1, 0, 0, False]]}},
     "node coordinate must be a string or an integer, got bool"),
    # a prime field whose modulus is not proved prime: 399165290221 *
    # 798330580441, a strong pseudoprime to bases 2..37; psi_13, one to bases
    # 2..41; and 2^127 - 1, prime but past the range the test decides
    ("pseudoprime-37", "defect --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 318665857834031151167461}, "nodes": _NODES}},
     "318665857834031151167461 is not prime"),
    ("psi-13", "defect --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 3317044064679887385961981}, "nodes": _NODES}},
     "primality is decided only below 3317044064679887385961981"),
    ("mersenne-127", "defect --nodes @in.json",
     {"in.json": {"degree": 4, "field": {"prime": 2**127 - 1}, "nodes": _NODES}},
     "primality is decided only below 3317044064679887385961981"),
    # the surface file of verify-nodes
    ("surface-degree-3-against-2", "verify-nodes --nodes @nodes.json --surface @surface.txt",
     {"nodes.json": _PLANE_NODE, "surface.txt": b"x^3 + y^3\n"},
     "surface has degree 3, configuration says 2"),
    ("surface-superscript-digit", "verify-nodes --nodes @nodes.json --surface @surface.txt",
     {"nodes.json": _PLANE_NODE, "surface.txt": "x^\u00b2\n".encode()},
     "expected an integer (at position 2)"),
    ("surface-not-utf8", "verify-nodes --nodes @nodes.json --surface @surface.txt",
     {"nodes.json": _PLANE_NODE, "surface.txt": b"x^2 + y^2 + z^2 \xff\xfe\n"},
     "cannot read surface file..."),
    # code actions on one file
    *[(f"{action}-{label}", f"code {action} @c.json @{extra}.json", {"c.json": _CODE},
       f"code {action} needs exactly one code file")
      for action in ("info", "canonical")
      for extra, label in (("c", "one-file-twice"), ("missing", "and-a-missing-file"))],
    # symmetroid-scan
    ("scan-non-list-entries", "symmetroid-scan --matrix @in.json",
     {"in.json": {"prime": 7, "upper_triangle": 5}}, "upper_triangle must be a list of strings"),
    ("scan-even-prime", "symmetroid-scan --seed 0 --prime 2", {},
     "prime field needs an odd prime, got 2"),
    ("scan-seed-prime-above-cap", f"symmetroid-scan --seed 0 --prime {2**127 - 1}", {},
     f"the scan caps the prime at 1024, got {2**127 - 1}"),
    ("hilbert-order-above-cap", f"hilbert-check --order {ORDER_CAP + 1}", {},
     f"series order {ORDER_CAP + 1} exceeds the cap of {ORDER_CAP}"),
    # each input file must hold a JSON object, and must decode
    *[(f"{what}-file-{name}", f"{flag} @in.json", {"in.json": payload},
       f"{what} file must be a JSON object, got {kind}")
      for what, flag in _FILE_FLAGS.items()
      for name, payload, kind in (("array", [], "list"), ("number", 5, "int"),
                                  ("string", "x", "str"), ("null", None, "NoneType"))],
    *[(f"{what}-file-{name}", f"{flag} @in.json", {"in.json": content},
       f"{what} file is not valid JSON: ...")
      for what, flag in _FILE_FLAGS.items()
      for name, content in (("not-utf8", b"\xff\xfe{"), ("nested", b"[" * 100_000 + b"]" * 100_000),
                            ("5001-digit-int", b"1" + b"0" * 5000))],
]


@pytest.mark.parametrize("argv, files, message", [row[1:] for row in _REFUSALS],
                         ids=[row[0] for row in _REFUSALS])
def test_invalid_values_exit_2_with_one_error_line(tmp_path, capsys, argv, files, message):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes)
                                      else json.dumps(content).encode())
    code, out, err = run(capsys, *resolve(argv.split(), str(tmp_path)))
    assert (code, out, err.count("\n")) == (2, "", 1), err
    if message.endswith("..."):
        assert err.startswith(f"error: {message[:-3]}")
    else:
        assert err == f"error: {message}\n"


def test_defect_accepts_a_prime_above_two_to_the_64(tmp_path, capsys):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"degree": 4, "field": {"prime": 2**64 + 13},
                                "nodes": [["1", "2", "3", "4"], ["0", "1", "2", "3"]]}))
    code, out, _ = run(capsys, "defect", "--nodes", str(path), "--json")
    assert code == 0 and json.loads(out)["dim_vanishing_space"] == 8


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


def test_hilbert_check_runs_at_the_order_cap(capsys):
    # one past the cap is a refusal row above
    code, out, _ = run(capsys, "hilbert-check", "--order", str(ORDER_CAP), "--json")
    assert code == 0 and len(json.loads(out)["coefficients"]) == ORDER_CAP + 1


# --- fuzzing: random subcommands, flags and small input files ----------------

_FILE = "file"  # marks an argv slot holding the contents of an input file


def _mostly(good, noise):
    # three draws in four from the well-formed strategy
    return st.sampled_from((good, good, good, noise)).flatmap(lambda s: s)


_JSON_LEAF = st.none() | st.booleans() | st.integers(-20, 20) | st.text(max_size=4)
_JSON_ANY = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_INT_ARG = _mostly(
    (st.integers(-3, 12) | st.sampled_from([17, 10**6])).map(str), st.text(max_size=3)
)
_PRIME_ARG = st.sampled_from(["2", "3", "5", "7", "11", "13", "0", "1", "4", "-7", "x"])
_FORMS = _mostly(
    st.sampled_from([
        "x^2 + y^2 + z^2", "x*y - z*w", "x^4 + y^4 + z^4 + w^4", "x + 2*y - w", "3*z",
        "x*y*z*w - w^4", "x^2*y^2 - 2*x*y*z*w + w^4", "0",
    ]),
    st.sampled_from(["x^2 + y", "x^^2", "1/0*x", "", "q"]) | st.text(max_size=6),
)
_COORD = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-3/4"])
_BAD_COORD = st.sampled_from(["1/0", "x", ""]) | _JSON_LEAF
_FIELD = _mostly(
    st.sampled_from(["rational", {"prime": 7}, {"prime": 13}]),
    st.sampled_from([{"prime": 4}, {"prime": 1}, {"prime": "7"}, {"prime": True},
                     "bogus", 5]),
)
_NODE_FILE = st.fixed_dictionaries(
    {
        "degree": _mostly(st.sampled_from([2, 4, 6]), st.integers(-2, 9) | _JSON_LEAF),
        "nodes": _mostly(
            st.lists(st.lists(_COORD, min_size=4, max_size=4), max_size=6),
            st.lists(st.lists(_COORD | _BAD_COORD, max_size=5), max_size=3) | _JSON_ANY,
        ),
    },
    optional={"field": _FIELD, "surface": _mostly(_FORMS, _JSON_LEAF)},
)
_CODE_FILE = st.fixed_dictionaries({
    "mu": _mostly(st.integers(6, 14), st.integers(-1, 5) | _JSON_LEAF),
    "generators": _mostly(
        st.lists(
            st.fixed_dictionaries({
                "parity": _mostly(st.sampled_from(["weak", "strict"]),
                                  st.just("odd") | _JSON_LEAF),
                "support": _mostly(st.lists(st.integers(0, 13), max_size=10),
                                   st.lists(st.integers(-1, 14), max_size=3) | _JSON_ANY),
            }),
            max_size=4,
        ),
        _JSON_ANY,
    ),
})
_MATRIX_FILE = st.fixed_dictionaries({
    "prime": _mostly(st.sampled_from([5, 7, 11, 13]),
                     st.sampled_from([2, 3, 4, 1, 0, -5]) | _JSON_LEAF),
    "upper_triangle": _mostly(st.lists(_FORMS, min_size=10, max_size=10),
                              st.lists(_FORMS, max_size=11) | _JSON_ANY),
})


def _file(structured):
    # None stands for a path that does not exist
    return st.tuples(st.just(_FILE), _mostly(
        structured, st.none() | _JSON_ANY.map(json.dumps) | st.text(max_size=8)
    ))


_JSON_FILE = {name: _file(s.map(json.dumps))
              for name, s in (("nodes", _NODE_FILE), ("code", _CODE_FILE),
                              ("matrix", _MATRIX_FILE))}
_COMMANDS = {
    "defect": {"--degree": _INT_ARG, "--nodes": _JSON_FILE["nodes"], "--mu": _INT_ARG,
               "--dim-m": _INT_ARG},
    "vanishing-dim": {"--nodes": _JSON_FILE["nodes"], "--degree": _INT_ARG},
    "verify-nodes": {"--nodes": _JSON_FILE["nodes"], "--surface": _file(_FORMS)},
    "bounds": {"--degree": _INT_ARG, "--mu": _INT_ARG, "--paper-closed-form": None},
    "classify-quartic": {"--mu": _INT_ARG, "--audit": None},
    "symmetroid-scan": {"--matrix": _JSON_FILE["matrix"], "--seed": _INT_ARG,
                        "--prime": _PRIME_ARG, "--uniform": None},
    "hilbert-check": {"--order": _INT_ARG},
}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from([*_COMMANDS, "code", "no-such-command"]))
    argv = [command]
    if command == "code":
        argv.append(draw(st.sampled_from(["info", "canonical", "isomorphic", "bogus"])))
        argv += draw(st.lists(_JSON_FILE["code"], min_size=1, max_size=3))
    for flag, value in {**_COMMANDS.get(command, {}), "--json": None}.items():
        if draw(st.sampled_from((True, True, True, False))):  # three calls in four
            argv.append(flag)
            if value is not None:
                argv.append(draw(value))
    return argv


@settings(deadline=None, max_examples=200)
@given(_cli_calls())
def test_cli_fuzz_exits_cleanly(call):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for i, arg in enumerate(call):
            if isinstance(arg, tuple):
                path = os.path.join(tmp, f"input{i}.json")
                if arg[1] is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(arg[1])
                arg = path
            argv.append(arg)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
