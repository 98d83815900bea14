"""Pinned CLI answers: the exit code and stdout of 240 fixed calls.

``answers.json`` next to this file holds, for each call, its argv, its exit
code and its stdout: the full text when it is at most ``TEXT_LIMIT`` bytes,
so a changed answer shows as a diff, else its SHA-256 with its byte and
line counts.  For exit 2 it also records that stderr is a single
``error:`` line (the wording is not pinned).  Exits 0 and 3 write nothing
to stderr; a call that does gets a ``stderr`` key with the text, which no
pin has, so the stray line fails.  Exit 1 is left out: argparse prints its
usage to stderr there.  Input files are
built here from fixed ``random.Random`` seeds, and argv slots that name one
read ``@name``.  Each call is replayed once warm and some once cold:
``tests/test_golden.py`` replays every call in-process, with numpy made
unimportable; ``tests/test_imports.py`` runs 13 of them, at least one
per exit code 0 to 3 and per handler that imports its own modules, through
the process entry in a fresh interpreter, and checks each answer and the
modules it loaded.

Regenerate only in a change whose purpose is to alter a listed answer:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from nodalcodes.cli import main

ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
TEXT_LIMIT = 40 * 1024  # bytes of stdout stored as text; a larger stdout is pinned by digest

# upper-triangle entry order: (0,0),(0,1),(0,2),(0,3),(1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
MATRICES = {
    "x_identity": ["x", "0", "0", "0", "x", "0", "0", "x", "0", "x"],
    "diag_xyzw": ["x", "0", "0", "0", "y", "0", "0", "z", "0", "w"],
    "common_kernel": ["x", "y", "z", "0", "w", "x+y", "0", "z+w", "0", "0"],
    "rank_one_pencil": ["x", "2*x", "3*x", "4*x", "4*x", "6*x", "8*x", "9*x", "12*x", "16*x"],
}
_KINDS = ("random", "segre", "cubic")
_NODE_COUNTS = {4: 9, 6: 24, 8: 60}


def _point(rng: random.Random, kind: str, rational: bool) -> list[str]:
    """A point of P^3 in the file format: random, on the Segre quadric
    xw = yz, or on the twisted cubic (s^3 : s^2 t : s t^2 : t^3)."""
    def scalar():
        if rational:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        return rng.randrange(10007)

    if kind == "segre":
        a, b, c, d = (scalar() for _ in range(4))
        coords = (a * c, a * d, b * c, b * d)
    elif kind == "cubic":
        s, t = scalar(), scalar()
        coords = (s**3, s * s * t, s * t * t, t**3)
    else:
        coords = tuple(scalar() for _ in range(4))
    return [str(c) for c in coords]


def _kummer_code(perm: list[int]) -> dict:
    """The 16-node Kummer code with nodes relabeled by ``perm``: nodes are
    F_2^4, the strictly even words are the affine hyperplanes and the whole
    set, and the weakly even word is a six-node quadric zero set."""
    bits = [tuple((a >> i) & 1 for i in range(4)) for a in range(16)]
    zeros = [a for a, x in enumerate(bits) if (x[0] * x[1] + x[2] + x[2] * x[3] + x[3]) % 2 == 0]
    gens = [{"parity": "strict", "support": list(range(16))}]
    gens += [{"parity": "strict", "support": [a for a, x in enumerate(bits) if x[i]]}
             for i in range(4)]
    gens.append({"parity": "weak", "support": zeros})
    for g in gens:
        g["support"] = sorted(perm[a] for a in g["support"])
    return {"mu": 16, "generators": gens}


def _random_code(rng: random.Random, mu: int, dim: int) -> dict:
    gens = [{"parity": rng.choice(["weak", "strict"]),
             "support": sorted(rng.sample(range(mu), rng.randrange(2, mu + 1, 2)))}
            for _ in range(dim)]
    return {"mu": mu, "generators": gens}


def inputs() -> dict[str, str]:
    """File name -> contents of every input file the calls name."""
    rng = random.Random(20260)
    files = {}
    for b, mu in _NODE_COUNTS.items():
        for field in ("q", "fp"):
            for kind in _KINDS:
                files[f"nodes_b{b}_{field}_{kind}.json"] = {
                    "degree": b,
                    "field": "rational" if field == "q" else {"prime": 10007},
                    "nodes": [_point(rng, kind, field == "q") for _ in range(mu)],
                }
    cayley = {"degree": 3, "field": "rational", "surface": "y*z*w + 2*x*z*w + 3*x*y*w + 5*x*y*z",
              "nodes": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    files["cayley.json"] = cayley
    files["cayley_fail.json"] = {**cayley, "nodes": cayley["nodes"] + [["1", "1", "1", "1"]]}
    files["cayley_no_surface.json"] = {k: v for k, v in cayley.items() if k != "surface"}
    files["surface_ok.txt"] = "y*z*w + 7*x*z*w + x*y*w + 2*x*y*z\n"
    files["surface_smooth.txt"] = "x^3 + y^3 + z^3 + w^3\n"
    for name, perm_seed in (("kummer_a", 1), ("kummer_b", 2)):
        perm = list(range(16))
        random.Random(perm_seed).shuffle(perm)
        files[f"{name}.json"] = _kummer_code(perm)
    for i, (mu, dim) in enumerate([(8, 2), (10, 3), (12, 3), (14, 4), (16, 4), (16, 5)]):
        files[f"code_{i}.json"] = _random_code(rng, mu, dim)
    for name, forms in MATRICES.items():
        for p in (7, 31):
            files[f"{name}_{p}.json"] = {"prime": p, "upper_triangle": forms}
    web = {"prime": 101, "upper_triangle": [
        "3*x + y + 5*w", "2*y + z", "x + 4*z + w", "7*w", "x + y + z + w",
        "9*x + 2*w", "z", "5*y + 3*z", "x + 8*y", "6*x + 2*y + 2*z + w"]}
    files["matrix_101.json"] = web
    # the "matrix" block that `symmetroid-scan --seed 5 --prime 101 --json` prints
    files["seed5_101.json"] = {"prime": 101, "upper_triangle": [
        "23*x + 96*y + 92*z + 99*w", "21*x + 49*y + 72*z + 55*w", "86*x + 35*y + 19*z + 71*w",
        "24*x + 89*y + 12*z + 34*w", "81*x + 80*y + 32*w", "33*x + 59*y + 38*z + 74*w", "51*x",
        "y", "51*z", "w"]}
    files["bad_json.json"] = '{"degree": 4, "nodes": ['
    files["bad_nodes.json"] = {"degree": 4, "nodes": 7}
    files["bad_node.json"] = {"degree": 4, "nodes": [7]}
    files["bad_surface.json"] = {"degree": 4, "nodes": [["1", "0", "0", "0"]], "surface": 5}
    files["bad_field.json"] = {"degree": 4, "field": {"prime": 4}, "nodes": [["1", "0", "0", "0"]]}
    files["bool_degree.json"] = {"degree": True, "nodes": [["1", "0", "0", "0"]]}
    files["big_degree.json"] = {"degree": 40000, "nodes": [["1", "0", "0", "0"]]}
    files["bad_generators.json"] = {"mu": 16, "generators": 5}
    files["repeated_index.json"] = {"mu": 16, "generators": [
        {"parity": "strict", "support": [0, 0, 1, 2, 3, 4, 5, 6, 7]}]}
    files["huge_mu.json"] = {"mu": 100000000, "generators": [
        {"parity": "strict", "support": [0, 1, 2, 3, 4, 5]}]}
    files["bool_mu.json"] = {"mu": True, "generators": []}
    files["bad_entry.json"] = {"prime": 7, "upper_triangle": [1] * 10}
    files["short_matrix.json"] = {"prime": 7, "upper_triangle": ["x"] * 9}
    files["string_prime.json"] = {"prime": "7", "upper_triangle": ["x"] * 10}
    files["even_prime.json"] = {"prime": 2, "upper_triangle": ["x"] * 10}
    files["quadratic_entry.json"] = {"prime": 7, "upper_triangle": ["x^2"] + ["0"] * 9}
    return {name: data if isinstance(data, str) else json.dumps(data)
            for name, data in files.items()}


def calls() -> list[list[str]]:
    """The pinned argv lists; ``@name`` stands for the path of input file ``name``."""
    out = []
    for mu in range(6, 17):
        out.append(["classify-quartic", "--mu", str(mu), "--json"])
        out.append(["classify-quartic", "--mu", str(mu), "--audit", "--json"])
    for mu in (6, 10, 12, 14):
        out.append(["classify-quartic", "--mu", str(mu)])
        out.append(["classify-quartic", "--mu", str(mu), "--audit"])
    out.append(["classify-quartic", "--mu", "16"])
    for b, mus in ((4, (6, 16)), (6, (30, 65)), (8, (100, 168)), (10, (200, 345)), (12, (400, 600))):
        for mu in mus:
            out.append(["bounds", "--degree", str(b), "--mu", str(mu), "--json"])
            out.append(["bounds", "--degree", str(b), "--mu", str(mu), "--paper-closed-form"])
    out.append(["bounds", "--degree", "8", "--mu", "168"])
    for b, mu, dim_m in ((4, 16, 0), (6, 65, 4), (8, 168, 0), (8, 100, 65)):
        out.append(["defect", "--degree", str(b), "--mu", str(mu), "--dim-m", str(dim_m), "--json"])
    out.append(["defect", "--degree", "6", "--mu", "65", "--dim-m", "4"])
    for b in _NODE_COUNTS:
        for field in ("q", "fp"):
            for kind in _KINDS:
                nodes = f"@nodes_b{b}_{field}_{kind}.json"
                out.append(["defect", "--nodes", nodes, "--json"])
                out.append(["vanishing-dim", "--nodes", nodes, "--json"])
                out.append(["vanishing-dim", "--nodes", nodes, "--degree", "2"])
    out.append(["defect", "--nodes", "@nodes_b6_q_cubic.json"])
    out.append(["defect", "--nodes", "@nodes_b6_q_cubic.json", "--degree", "6", "--json"])
    out += [
        ["verify-nodes", "--nodes", "@cayley.json", "--json"],
        ["verify-nodes", "--nodes", "@cayley.json"],
        ["verify-nodes", "--nodes", "@cayley_fail.json", "--json"],
        ["verify-nodes", "--nodes", "@cayley_fail.json"],
        ["verify-nodes", "--nodes", "@cayley_no_surface.json", "--surface", "@surface_ok.txt"],
        ["verify-nodes", "--nodes", "@cayley.json", "--surface", "@surface_smooth.txt", "--json"],
    ]
    codes = ["@kummer_a.json", "@kummer_b.json"] + [f"@code_{i}.json" for i in range(6)]
    for code in codes:
        out.append(["code", "info", code, "--json"])
        out.append(["code", "canonical", code])
    out += [["code", "info", "@kummer_a.json"], ["code", "canonical", "@kummer_a.json", "--json"],
            ["code", "isomorphic", "@kummer_a.json", "@kummer_b.json", "--json"],
            ["code", "isomorphic", "@kummer_a.json", "@code_5.json"],
            ["code", "isomorphic", "@code_4.json", "@code_5.json", "--json"]]
    for p, seeds in ((13, range(20)), (101, range(20)), (211, range(3))):
        for seed in seeds:
            out.append(["symmetroid-scan", "--seed", str(seed), "--prime", str(p), "--json"])
    out.append(["symmetroid-scan", "--seed", "1", "--prime", "101"])
    for seed in range(4):
        out.append(["symmetroid-scan", "--seed", str(seed), "--prime", "31", "--uniform", "--json"])
    out.append(["symmetroid-scan", "--seed", "0", "--prime", "31", "--uniform"])
    out.append(["symmetroid-scan", "--matrix", "@matrix_101.json", "--json"])
    out.append(["symmetroid-scan", "--matrix", "@seed5_101.json", "--json"])  # round trip of seed 5
    for name in MATRICES:
        for p in (7, 31):
            out.append(["symmetroid-scan", "--matrix", f"@{name}_{p}.json", "--json"])
    out.append(["symmetroid-scan", "--matrix", "@x_identity_7.json"])
    for order in ("0", "5", "20"):
        out.append(["hilbert-check", "--order", order, "--json"])
    out.append(["hilbert-check"])
    # refusals: exit 1 for usage, exit 2 with one error line for bad data
    out += [
        ["frobnicate"],
        ["bounds", "--degree", "8"],
        ["bounds", "--degree", "5", "--mu", "3"],
        ["classify-quartic", "--mu", "17"],
        ["classify-quartic", "--mu", "5"],
        ["defect", "--degree", "6"],
        ["defect", "--nodes", "@missing.json"],
        ["defect", "--nodes", "@bad_field.json"],
        ["defect", "--nodes", "@bool_degree.json"],
        ["defect", "--nodes", "@big_degree.json"],
        ["defect", "--nodes", "@nodes_b4_q_random.json", "--degree", "6"],
        ["vanishing-dim", "--nodes", "@bad_json.json"],
        ["vanishing-dim", "--nodes", "@bad_nodes.json"],
        ["vanishing-dim", "--nodes", "@bad_node.json"],
        ["verify-nodes", "--nodes", "@bad_surface.json"],
        ["verify-nodes", "--nodes", "@cayley_no_surface.json"],
        ["code", "canonical", "@bad_generators.json"],
        ["code", "info", "@repeated_index.json"],
        ["code", "info", "@huge_mu.json"],
        ["code", "info", "@bool_mu.json"],
        ["code", "info", "@kummer_a.json", "@kummer_b.json"],
        ["code", "isomorphic", "@kummer_a.json"],
        ["symmetroid-scan"],
        ["symmetroid-scan", "--seed", "-1"],
        ["symmetroid-scan", "--seed", "0", "--prime", "2"],
        ["symmetroid-scan", "--seed", "0", "--prime", "9"],
        ["symmetroid-scan", "--seed", "0", "--prime", "3"],
        ["symmetroid-scan", "--seed", "0", "--prime", "1031"],
        ["symmetroid-scan", "--seed", "0", "--prime", str(2**127 - 1), "--uniform"],
        ["symmetroid-scan", "--matrix", "@bad_entry.json"],
        ["symmetroid-scan", "--matrix", "@short_matrix.json"],
        ["symmetroid-scan", "--matrix", "@string_prime.json"],
        ["symmetroid-scan", "--matrix", "@even_prime.json"],
        ["symmetroid-scan", "--matrix", "@quadratic_entry.json"],
        ["hilbert-check", "--order", "-3"],
        ["hilbert-check", "--order", "100000"],
    ]
    return out


def write_inputs(directory: str) -> None:
    for name, text in inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def resolve(argv: list[str], directory: str) -> list[str]:
    return [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]


def answer(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` in-process and summarize what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return summarize(code, out.getvalue(), err.getvalue())


def summarize(code: int, text: str, err_text: str) -> dict:
    """A call's exit code, stdout and stderr in the form ``answers.json`` pins."""
    data = text.encode()
    result = {"exit": code}
    if len(data) <= TEXT_LIMIT:
        result["stdout"] = text
    else:
        result["stdout_sha256"] = hashlib.sha256(data).hexdigest()
        result["stdout_bytes"] = len(data)
        result["stdout_lines"] = text.count("\n")
    if code == 2:
        result["one_error_line"] = err_text.startswith("error:") and err_text.count("\n") == 1
    elif code in (0, 3) and err_text:
        result["stderr"] = err_text
    return result


def regenerate() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        return [{"argv": argv, **answer(resolve(argv, directory))} for argv in calls()]


if __name__ == "__main__":
    entries = regenerate()
    with open(ANSWERS, "w", encoding="utf-8") as fh:  # one call per line
        fh.write("[\n" + ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} answers to {ANSWERS}", file=sys.stderr)
