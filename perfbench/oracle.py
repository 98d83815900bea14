"""Answer checks for every task, independent of the library.

Each check returns a list of problems; an empty list accepts the answer.
None of them imports ``nodalcodes``: they use the golden classification
table, closed-form ranks, the expected point sets built with the inputs,
and the mod-p routines in :mod:`modp`.
"""

from __future__ import annotations

import json
from math import comb

from inputs import GOLDEN_COUNTS, GOLDEN_PROFILES, UPPER_TRIANGLE, matrix_at
from modp import normalize, projective_points, rank_mod_p


def check_classify(mu: int, answer) -> list[str]:
    problems = []
    profiles = [profile for profile, _dim, _canonical in answer]
    if len(answer) != GOLDEN_COUNTS[mu - 6]:
        problems.append(f"mu={mu}: {len(answer)} classes, expected {GOLDEN_COUNTS[mu - 6]}")
    if set(profiles) != GOLDEN_PROFILES[mu]:
        problems.append(f"mu={mu}: profiles {sorted(profiles)}")
    for profile, dim, _canonical in answer:
        if profile.split(",")[1] != str(dim):
            problems.append(f"mu={mu}: dim {dim} disagrees with {profile}")
    if mu >= 13 and len({canonical for *_rest, canonical in answer}) != len(answer):
        problems.append(f"mu={mu}: canonical forms are not distinct")
    return problems


def _rank_at_most_2(coefficients, point, p: int) -> bool:
    return rank_mod_p(matrix_at(coefficients, point, p), p) <= 2


def check_points(task: dict, points) -> list[str]:
    """Every returned point is normalized, distinct and of rank <= 2."""
    p = task["prime"]
    problems = []
    if len({tuple(pt) for pt in points}) != len(points):
        problems.append("repeated points")
    for pt in points:
        if not any(pt) or tuple(pt) != normalize(pt, p):
            problems.append(f"{pt} is not a normalized projective point")
        elif not _rank_at_most_2(task["coefficients"], pt, p):
            problems.append(f"rank > 2 at {pt}")
    return problems


def check_scan(task: dict, answer: dict) -> list[str]:
    p, kind, points = task["prime"], task["kind"], answer["points"]
    problems = check_points(task, points)
    if task["expected_points"] is not None:
        if {tuple(pt) for pt in points} != {tuple(pt) for pt in task["expected_points"]}:
            problems.append(f"{len(points)} points, not the {len(task['expected_points'])} expected")
    if kind == "coplanar-web" and (len(points) < p + 1 or not answer["degenerate"]):
        problems.append(f"coplanar web: {len(points)} points, degenerate={answer['degenerate']}")
    if kind == "web" and answer["degenerate"]:
        problems.append("ten-point web flagged degenerate")
    cert = answer.get("certificate")
    if len(points) == 10 and not answer["degenerate"]:
        rows = [[pt[i] * pt[j] % p for i, j in UPPER_TRIANGLE] for pt in points]
        rank = rank_mod_p(rows, p)
        if cert is None:
            problems.append("ten points but no certificate")
        elif cert["rank"] != rank or cert["certified"] != (rank == 10):
            problems.append(f"certificate {cert}, own quadric-evaluation rank {rank}")
        elif kind == "web" and not cert["certified"]:
            problems.append("ten-point web not certified")
    elif cert is not None:
        problems.append("certificate without ten points")
    return problems


def brute_force_points(task: dict) -> set[tuple[int, ...]]:
    """The whole rank <= 2 locus by a pass over P^3(F_p); small p only."""
    p, coefficients = task["prime"], task["coefficients"]
    return {pt for pt in projective_points(p) if _rank_at_most_2(coefficients, pt, p)}


def check_rank(task: dict, answer: dict) -> list[str]:
    d, n = task["form_degree"], len(task["points"])
    dim = comb(d + 3, 3) - task["expected_rank"]
    problems = []
    if answer["dim"] != dim:
        problems.append(f"{task['kind']} n={n}: dimension {answer['dim']}, expected {dim}")
    if "defect" in answer:
        defect = dim - (comb(3 * task["degree"] // 2 - 1, 3) - n)
        if answer["defect"] != defect:
            problems.append(f"{task['kind']} n={n}: defect {answer['defect']}, expected {defect}")
    return problems


def check_cli(task: dict, answer: dict) -> list[str]:
    """Exit code, no traceback, and for exit 0 the JSON keys and values."""
    problems = []
    if answer["exit"] not in task["exit"]:
        problems.append(f"exit {answer['exit']}, expected {task['exit']}")
    if "Traceback" in answer["stderr"]:
        problems.append("traceback: " + answer["stderr"].strip().splitlines()[-1])
    if answer["exit"] == 0 and "keys" in task:
        try:
            payload = json.loads(answer["stdout"])
        except json.JSONDecodeError:
            return problems + ["stdout is not JSON"]
        missing = [k for k in task["keys"] if k not in payload]
        if missing:
            problems.append(f"missing keys {missing}")
        for key, value in task["values"].items():
            if payload.get(key) != value:
                problems.append(f"{key} = {payload.get(key)!r}, expected {value!r}")
    return problems


CHECKS = {
    "classify": check_classify,
    "scan": check_scan,
    "rank": check_rank,
    "cli": check_cli,
}
