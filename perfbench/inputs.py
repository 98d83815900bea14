"""Seeded inputs for every workload, built by the benchmark's own code.

Nothing here imports the library: symmetroid matrices, node
configurations and CLI files come from ``random.Random(seed)`` and the
mod-p routines in :mod:`modp`.  A change to a library generator therefore
changes no workload input.  Each input carries the answer the benchmark
expects, derived from its construction.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations
from math import comb, gcd

from modp import normalize, nullspace_mod_p, rank_mod_p

# upper-triangle positions of a symmetric 4x4 matrix, row-major; also the
# order of the quadric monomials x_i x_j
UPPER_TRIANGLE = tuple((i, j) for i in range(4) for j in range(i, 4))

# μ = 6..16 classification answers (classes per μ and their profiles)
GOLDEN_PROFILES = {
    6: {"[6,1,{6_1}]"},
    7: {"[7,1,{6_1}]"},
    8: {"[8,1,{6_1}]", "[8,1,{8_1}]"},
    9: {"[9,1,{6_1}]", "[9,1,{8_1}]"},
    10: {"[10,1,{6_1}]", "[10,1,{8_1}]", "[10,1,{10_1}]", "[10,2,{6_2,8}]"},
    11: {"[11,1,{6_1}]", "[11,1,{8_1}]", "[11,1,{10_1}]", "[11,2,{6_2,8}]"},
    12: {"[12,2,{6_1,8_1,10}]", "[12,2,{8_2}]", "[12,3,{6_3,8}]", "[12,2,{6_2,8}]"},
    13: {"[13,3,{6_3,8}]", "[13,3,{6_3,8,10}]"},
    14: {"[14,4,{6_4,8,10}]"},
    15: {"[15,5,{6_5,8,10}]"},
    16: {"[16,6,{6_6,8,10,16}]"},
}
GOLDEN_COUNTS = (1, 1, 2, 2, 4, 4, 4, 2, 1, 1, 1)

CHECK_PRIME = 13  # small enough for a brute-force pass over P^3(F_p)
RANK_PRIME = 32003  # field of the F_p node configurations
CLI_PRIME = 31
ORACLE_PRIME = 2147483647  # rank checks of rational matrices


# --- symmetroid matrices ---------------------------------------------------


def _random_point(p: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        pt = tuple(rng.randrange(p) for _ in range(4))
        if any(pt):
            return pt


def _quadric_row(pt, p: int) -> list[int]:
    return [pt[i] * pt[j] % p for i, j in UPPER_TRIANGLE]


def _plane_through(pts, p: int) -> list[int]:
    (plane,) = nullspace_mod_p([list(q) for q in pts], p)
    return plane


def _plane_pair(a: list[int], b: list[int], p: int) -> list[int]:
    """Quadric coefficients of the product of two linear forms."""
    return [
        a[i] * b[i] % p if i == j else (a[i] * b[j] + a[j] * b[i]) % p
        for i, j in UPPER_TRIANGLE
    ]


def _web_coordinates(web: list[list[int]], quadric: list[int], p: int) -> tuple[int, ...]:
    """The point (c_0 : ... : c_3) with sum c_k web_k = quadric."""
    # kernel of [web_0 .. web_3 | -quadric] as columns
    rows = [[web[k][m] for k in range(4)] + [-quadric[m] % p] for m in range(10)]
    (vec,) = nullspace_mod_p(rows, p)
    return normalize(vec[:4], p)


def web_matrix(p: int, rng: random.Random, coplanar: bool) -> dict:
    """Symmetric linear matrix spanned by the web of quadrics through six
    rational points.

    Without ``coplanar`` no four of the points lie in a plane, and the
    rank <= 2 locus is exactly the ten plane pairs splitting the points
    3 + 3.  With ``coplanar`` points 0..3 share a plane P; the locus is
    then the line of pairs P * L (L through points 4 and 5) plus the six
    splittings 2 + 1 | 2 + 1, p + 7 points in all.  Either way the
    expected point set is computed from the six points.
    """
    while True:
        pts = [_random_point(p, rng) for _ in range(6)]
        if coplanar:
            a, b, c = (rng.randrange(1, p) for _ in range(3))
            pts[3] = tuple((a * x + b * y + c * z) % p for x, y, z in zip(*pts[:3]))
        quads = list(combinations(range(6), 4))
        flat = [q for q in quads if rank_mod_p([list(pts[i]) for i in q], p) < 4]
        if flat != ([(0, 1, 2, 3)] if coplanar else []):
            continue
        rows = [_quadric_row(pt, p) for pt in pts]
        if rank_mod_p(rows, p) != 6:
            continue
        break
    web = nullspace_mod_p(rows, p)
    inv2 = pow(2, -1, p)
    coefficients = [
        [q[m] if i == j else q[m] * inv2 % p for q in web]
        for m, (i, j) in enumerate(UPPER_TRIANGLE)
    ]
    expected = set()
    for triple in combinations(range(1, 6), 2):
        side_a = (0,) + triple
        side_b = tuple(i for i in range(6) if i not in side_a)
        if coplanar and (set(side_a) <= {0, 1, 2, 3} or set(side_b) <= {0, 1, 2, 3}):
            continue  # those four splittings lie on the line below
        pa = _plane_through([pts[i] for i in side_a], p)
        pb = _plane_through([pts[i] for i in side_b], p)
        expected.add(_web_coordinates(web, _plane_pair(pa, pb, p), p))
    if coplanar:
        plane = _plane_through(pts[:3], p)
        l1, l2 = nullspace_mod_p([list(pts[4]), list(pts[5])], p)
        for s, t in [(0, 1)] + [(1, t) for t in range(p)]:
            line = [(s * u + t * v) % p for u, v in zip(l1, l2)]
            expected.add(_web_coordinates(web, _plane_pair(plane, line, p), p))
    return {
        "kind": "coplanar-web" if coplanar else "web",
        "prime": p,
        "coefficients": coefficients,
        "expected_points": sorted(expected),
    }


def uniform_matrix(p: int, rng: random.Random) -> dict:
    """Uniform random coefficients: Frobenius mixes the ten geometric
    points, so few are rational; no expected point set."""
    return {
        "kind": "uniform",
        "prime": p,
        "coefficients": [[rng.randrange(p) for _ in range(4)] for _ in range(10)],
        "expected_points": None,
    }


def matrix_at(coefficients, point, p: int) -> list[list[int]]:
    """The symmetric 4x4 matrix of a linear matrix at a point, mod p."""
    m = [[0] * 4 for _ in range(4)]
    for (i, j), row in zip(UPPER_TRIANGLE, coefficients):
        m[i][j] = m[j][i] = sum(c * x for c, x in zip(row, point)) % p
    return m


def scan_inputs(seed: int) -> list[dict]:
    """Scan task list: at p = 101 three ten-point webs, two coplanar webs
    and two uniform matrices; at p = 211 one web and one uniform matrix."""
    rng = random.Random(f"scan-{seed}")
    tasks = []
    for p, kinds in ((101, "WWWCCUU"), (211, "WU")):
        for kind in kinds:
            if kind == "U":
                tasks.append(uniform_matrix(p, rng))
            else:
                tasks.append(web_matrix(p, rng, coplanar=kind == "C"))
    return tasks


def scan_check_inputs(seed: int) -> list[dict]:
    """One matrix of each kind at a small prime, for the brute-force
    completeness check."""
    rng = random.Random(f"scan-check-{seed}")
    return [
        web_matrix(CHECK_PRIME, rng, coplanar=False),
        web_matrix(CHECK_PRIME, rng, coplanar=True),
        uniform_matrix(CHECK_PRIME, rng),
    ]


# --- node configurations -----------------------------------------------------


def _projective_key(pt, p: int | None) -> tuple[int, ...]:
    """Equal for two representatives of one projective point."""
    if p is not None:
        return normalize(pt, p)
    g = 0
    for c in pt:
        g = gcd(g, c)
    sign = 1 if next(c for c in pt if c) > 0 else -1
    return tuple(c // g * sign for c in pt)


def _points(n: int, draw, p: int | None) -> list[tuple[int, ...]]:
    """n projectively distinct points from ``draw``."""
    seen, pts = set(), []
    while len(pts) < n:
        pt = draw()
        if any(c % p if p else c for c in pt) and _projective_key(pt, p) not in seen:
            seen.add(_projective_key(pt, p))
            pts.append(pt)
    return pts


def node_configuration(kind: str, n: int, degree: int, rng: random.Random) -> dict:
    """Points of one kind and the rank their evaluation matrix must have.

    Kinds and the rank of degree-d monomials at n points:
    ``random`` over Q, min(n, C(d+3,3)); ``quadric`` on xw = yz,
    min(n, (d+1)^2); ``cubic`` on the twisted cubic, min(n, 3d+1);
    ``random-fp`` and ``quadric-fp``, the same over F_p.
    """
    d = 3 * degree // 2 - 4
    small = lambda: rng.randint(-9, 9)  # noqa: E731
    if kind == "random":
        p, bound = None, comb(d + 3, 3)
        draw = lambda: tuple(small() for _ in range(4))  # noqa: E731
    elif kind == "quadric":
        p, bound = None, (d + 1) ** 2

        def draw():
            s, t, u, v = (small() for _ in range(4))
            return (s * u, s * v, t * u, t * v)
    elif kind == "cubic":
        p, bound = None, 3 * d + 1

        def draw():
            s, t = rng.randint(-9, 9), rng.randint(1, 9)
            return (s**3, s * s * t, s * t * t, t**3)
    elif kind == "random-fp":
        p, bound = RANK_PRIME, comb(d + 3, 3)
        draw = lambda: tuple(rng.randrange(RANK_PRIME) for _ in range(4))  # noqa: E731
    elif kind == "quadric-fp":
        p, bound = RANK_PRIME, (d + 1) ** 2

        def draw():
            s, t, u, v = (rng.randrange(RANK_PRIME) for _ in range(4))
            return (s * u % p, s * v % p, t * u % p, t * v % p)
    else:
        raise ValueError(kind)
    # the closed form bounds the rank from above and a rank mod a prime
    # bounds it from below, so equality confirms the expected rank
    check_prime = p or ORACLE_PRIME
    while True:
        points = _points(n, draw, p)
        if rank_mod_p(evaluation_rows(points, d, check_prime), check_prime) == min(n, bound):
            break
    return {
        "kind": kind,
        "degree": degree,
        "form_degree": d,
        "prime": p,
        "points": points,
        "expected_rank": min(n, bound),
    }


def monomials(d: int) -> list[tuple[int, int, int, int]]:
    return [
        (i, j, k, d - i - j - k)
        for i in range(d + 1)
        for j in range(d + 1 - i)
        for k in range(d + 1 - i - j)
    ]


def evaluation_rows(points, d: int, p: int) -> list[list[int]]:
    monos = monomials(d)
    return [
        [pow(pt[0], a, p) * pow(pt[1], b, p) * pow(pt[2], c, p) * pow(pt[3], e, p) % p
         for a, b, c, e in monos]
        for pt in points
    ]


# (kind, node count, surface degree, library call): Q and F_p, full rank
# and rank-deficient; an odd count keeps the median call inside one task's
# samples rather than between two tasks
RANK_PLAN = (
    ("random", 65, 6, "defect_from_nodes"),
    ("quadric", 65, 6, "defect_from_nodes"),
    ("cubic", 40, 6, "vanishing_dimension"),
    ("random-fp", 120, 8, "vanishing_dimension"),
    ("random-fp", 168, 8, "defect_from_nodes"),
    ("quadric-fp", 120, 8, "vanishing_dimension"),
    ("random", 40, 8, "vanishing_dimension"),
)


def rank_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"rank-{seed}")
    tasks = []
    for kind, n, degree, call in RANK_PLAN:
        cfg = node_configuration(kind, n, degree, rng)
        cfg["call"] = call
        tasks.append(cfg)
    return tasks


# --- classification ------------------------------------------------------------


def classify_inputs(seed: int) -> list[int]:
    """μ = 6..16, ascending, whatever the seed: the library call takes only
    μ, and another order would change which μ warms the canonical-form
    memo for the next, and with it the per-call times."""
    return list(range(6, 17))


# --- CLI -------------------------------------------------------------------


def kummer_code(perm: list[int]) -> dict:
    """The 16-node Kummer code [16,6,{6_6,8,10,16}] with nodes relabeled by
    ``perm``: nodes are F_2^4, the strictly even words are the affine
    hyperplanes and the whole set, and the weakly even word is the zero
    set of the anisotropic-type form x0 x1 + x2^2 + x2 x3 + x3^2 (6 nodes)."""
    bits = [tuple((a >> i) & 1 for i in range(4)) for a in range(16)]
    zeros = [a for a, x in enumerate(bits) if (x[0] * x[1] + x[2] + x[2] * x[3] + x[3]) % 2 == 0]
    gens = [{"parity": "strict", "support": list(range(16))}]
    gens += [{"parity": "strict", "support": [a for a, x in enumerate(bits) if x[i]]} for i in range(4)]
    gens.append({"parity": "weak", "support": zeros})
    for g in gens:
        g["support"] = sorted(perm[a] for a in g["support"])
    return {"mu": 16, "generators": gens}


def cayley_cubic(rng: random.Random) -> dict:
    """a yzw + b xzw + c xyw + d xyz: nodes at the four coordinate points."""
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    return {
        "degree": 3,
        "field": "rational",
        "surface": f"{a}*y*z*w + {b}*x*z*w + {c}*x*y*w + {d}*x*y*z",
        "nodes": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }


def _forms_text(coefficients) -> list[str]:
    return [
        " + ".join(f"{c}*{v}" for c, v in zip(row, "xyzw") if c) or "0"
        for row in coefficients
    ]


def cli_inputs(seed: int, directory: str) -> list[dict]:
    """Write the CLI input files into ``directory`` and return the call list.

    Each call has its argv, the exit codes it may end with, and the JSON
    keys (and a few exact values) its output must have.  The malformed
    inputs whose exit code is 2 include ones that end in a traceback
    today; they count as failures until the loaders reject them."""
    rng = random.Random(f"cli-{seed}")
    os.makedirs(directory, exist_ok=True)

    def write(name: str, data) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data if isinstance(data, str) else json.dumps(data))
        return path

    perm_a = list(range(16))
    perm_b = list(range(16))
    rng.shuffle(perm_a)
    rng.shuffle(perm_b)
    kummer_a = write("kummer_a.json", kummer_code(perm_a))
    kummer_b = write("kummer_b.json", kummer_code(perm_b))
    while True:  # nine points imposing independent conditions on quadrics
        quartic_nodes = _points(9, lambda: tuple(rng.randint(-9, 9) for _ in range(4)), None)
        if rank_mod_p(evaluation_rows(quartic_nodes, 2, ORACLE_PRIME), ORACLE_PRIME) == 9:
            break
    nodes = write("nodes.json", {
        "degree": 4, "field": "rational", "nodes": [[str(c) for c in pt] for pt in quartic_nodes],
    })
    cubic = write("cayley.json", cayley_cubic(rng))
    web = web_matrix(CLI_PRIME, rng, coplanar=False)
    matrix = write("matrix.json", {"prime": CLI_PRIME, "upper_triangle": _forms_text(web["coefficients"])})

    bad_json = write("bad_json.json", '{"degree": 4, "nodes": [')
    bad_nodes = write("bad_nodes.json", {"degree": 4, "nodes": 7})
    bad_surface = write("bad_surface.json", {"degree": 4, "nodes": [["1", "0", "0", "0"]], "surface": 5})
    bad_generators = write("bad_generators.json", {"mu": 16, "generators": 5})
    entries = _forms_text(web["coefficients"])
    entries[rng.randrange(10)] = rng.randint(1, 9)
    bad_entry = write("bad_entry.json", {"prime": CLI_PRIME, "upper_triangle": entries})

    bound_keys = ["beauville_bound", "improved_bound", "miyaoka_max_nodes", "jacobian_slice_dim"]
    mu = rng.randint(160, 174)
    ok = [0]
    calls = [
        {"name": "bounds", "argv": ["bounds", "--degree", "8", "--mu", str(mu)],
         "exit": ok, "keys": bound_keys, "values": {"beauville_bound": mu - 150, "improved_bound": mu - 149}},
        {"name": "defect", "argv": ["defect", "--degree", "6", "--mu", "65", "--dim-m", "4"],
         "exit": ok, "keys": ["defect", "estimate"], "values": {"defect": 13}},
        {"name": "hilbert-check", "argv": ["hilbert-check"],
         "exit": ok, "keys": ["coefficients", "match"], "values": {"match": True}},
        {"name": "classify-quartic", "argv": ["classify-quartic", "--mu", "10"],
         "exit": ok, "keys": ["count", "entries"], "values": {"count": 4}},
        {"name": "code-canonical", "argv": ["code", "canonical", kummer_a],
         "exit": ok, "keys": ["canonical"], "values": {}},
        {"name": "code-isomorphic", "argv": ["code", "isomorphic", kummer_a, kummer_b],
         "exit": ok, "keys": ["isomorphic"], "values": {"isomorphic": True}},
        {"name": "vanishing-dim", "argv": ["vanishing-dim", "--nodes", nodes],
         "exit": ok, "keys": ["dimension"], "values": {"dimension": 1}},
        {"name": "verify-nodes", "argv": ["verify-nodes", "--nodes", cubic],
         "exit": ok, "keys": ["all_nodes", "nodes"], "values": {"all_nodes": True}},
        {"name": "symmetroid-scan", "argv": ["symmetroid-scan", "--matrix", matrix],
         "exit": ok, "keys": ["certificate", "scan"], "values": {}},
        {"name": "bad-json", "argv": ["vanishing-dim", "--nodes", bad_json], "exit": [2]},
        {"name": "bad-degree", "argv": ["bounds", "--degree", "5", "--mu", "3"], "exit": [2]},
        {"name": "bad-mu", "argv": ["classify-quartic", "--mu", "17"], "exit": [2]},
        {"name": "bad-command", "argv": ["frobnicate"], "exit": [1]},
        {"name": "bad-nodes", "argv": ["vanishing-dim", "--nodes", bad_nodes], "exit": [2]},
        {"name": "bad-surface", "argv": ["verify-nodes", "--nodes", bad_surface], "exit": [2]},
        {"name": "bad-generators", "argv": ["code", "canonical", bad_generators], "exit": [2]},
        {"name": "bad-entry", "argv": ["symmetroid-scan", "--matrix", bad_entry], "exit": [2]},
        {"name": "bad-seed", "argv": ["symmetroid-scan", "--seed", "-1"], "exit": [2]},
    ]
    for call in calls:
        call["argv"].append("--json")
    return calls
