"""The Kummer quartic end to end, exactly over Q.

Hudson's family x^4 + y^4 + z^4 + w^4 + A(x^2 w^2 + y^2 z^2) + B(y^2 w^2 +
x^2 z^2) + C(z^2 w^2 + x^2 y^2) + 2D xyzw (Hudson, *Kummer's Quartic
Surface*, 1905) is singular at (1:2:3:5) for A = 529/11, B = -43/7,
C = -53/17 and D = -49590/1309, the solution of the four linear equations
that make its gradient vanish there.  ``golden/kummer_surface.txt`` holds
that surface, expanded to the file grammar, and ``golden/kummer_nodes.json``
the orbit of (1:2:3:5) under the double transpositions of the coordinates
and the even sign changes: 16 points.

The paper measures how special a node set is by the defect and by the
dimension of its code.  On this surface both read 6: the quadrics through
the nodes give the defect, and the 16 tropes, the planes through six of
the nodes, span the code of the table's one class at mu = 16.  The tropes
are found here by an exact plane test of this module's own.
"""

import json
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations

from nodalcodes.cli import main
from nodalcodes.codes import EvenSetCode, canonical_form

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NODES = os.path.join(GOLDEN, "kummer_nodes.json")
SURFACE = os.path.join(GOLDEN, "kummer_surface.txt")


def _payload(capsys, *argv):
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_verify_nodes_passes_on_all_sixteen(capsys, tmp_path):
    code, payload = _payload(capsys, "verify-nodes", "--nodes", NODES, "--surface", SURFACE)
    assert code == 0
    assert payload["mu"] == 16 and payload["all_nodes"]
    assert [n["is_node"] for n in payload["nodes"]] == [True] * 16
    # another D: (1:2:3:5) is no longer singular, and the check says so
    with open(SURFACE, encoding="utf-8") as fh:
        other = tmp_path / "other.txt"
        other.write_text(fh.read().replace("99180/1309", "99181/1309"), encoding="utf-8")
    code, payload = _payload(capsys, "verify-nodes", "--nodes", NODES, "--surface", str(other))
    assert code == 3 and not payload["all_nodes"]


def test_defect_from_the_nodes_is_six(capsys):
    # no quadric passes through the 16 nodes, against an estimate of
    # C(5, 3) - 16 = -6 forms: defect 6
    code, payload = _payload(capsys, "defect", "--nodes", NODES)
    assert code == 0
    assert (payload["dim_vanishing_space"], payload["estimate"], payload["defect"]) == (0, -6, 6)


def _nodes() -> list[tuple[Fraction, ...]]:
    with open(NODES, encoding="utf-8") as fh:
        return [tuple(map(Fraction, node)) for node in json.load(fh)["nodes"]]


def _det3(rows) -> Fraction:
    (a, b, c), (d, e, f), (g, h, k) = rows
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def _planes(points) -> set[frozenset[int]]:
    # every plane through three points not on a line, as the set of the
    # points on it: its coefficients are the signed 3x3 minors of the three
    # points, all zero exactly when they lie on a line
    planes = set()
    for rows in combinations(points, 3):
        normal = [(-1) ** i * _det3([row[:i] + row[i + 1:] for row in rows]) for i in range(4)]
        if any(normal):
            planes.add(frozenset(
                n for n, p in enumerate(points) if sum(u * v for u, v in zip(normal, p)) == 0
            ))
    return planes


def test_the_tropes_span_the_tables_sixteen_node_code(classification_tables):
    # exactly 16 planes meet six nodes and none meets more, each node lies
    # on six of them (Kummer's 16_6 configuration), and their 6-sets, taken
    # as weakly even words, span the code of the table's mu = 16 class
    planes = _planes(_nodes())
    tropes = [plane for plane in planes if len(plane) >= 6]
    assert len(tropes) == 16 and max(map(len, planes)) == 6
    assert Counter(n for trope in tropes for n in trope) == {n: 6 for n in range(16)}
    code = EvenSetCode(16, tuple(sum(1 << n for n in trope) | 1 << 16 for trope in tropes))
    (entry,) = classification_tables[16].entries
    assert code.dim == 6
    assert canonical_form(code) == entry.canonical
