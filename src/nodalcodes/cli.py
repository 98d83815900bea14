"""Command-line interface.

One subcommand per computation, each with an optional ``--json`` payload.
Exit codes: 0 success (including all requested certifications passing),
1 usage error, 2 invalid data or parameters, 3 a certification or
verification that was run and failed, 141 (128 + SIGPIPE) when stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from . import classify as classify_mod
from . import nodes as nodes_mod
from . import series as series_mod
from . import symmetroid as symmetroid_mod
from .codes import canonical_form, code_to_dict, is_isomorphic, load_code_file, weight_enumerator
from .errors import InputError
from .fields import QQ
from .forms import parse_form

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFICATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_defect(args) -> int:
    if args.nodes is not None:
        cfg = nodes_mod.load_node_file(args.nodes)
        if args.degree is not None and args.degree != cfg.degree:
            raise InputError(
                f"--degree {args.degree} disagrees with node file degree {cfg.degree}"
            )
        report = nodes_mod.defect_from_nodes(cfg)
        note = "" if cfg.field == QQ else " (prime-field rank: probabilistic evidence)"
    else:
        if args.degree is None or args.mu is None or args.dim_m is None:
            raise InputError("need either --nodes FILE or all of --degree, --mu, --dim-m")
        report = nodes_mod.defect(args.degree, args.mu, args.dim_m)
        note = ""
    human = (
        f"degree {report.b}, mu = {report.mu}: forms of degree {report.m_degree} "
        f"through the nodes form a space of dimension {report.dim_m}, "
        f"estimate {report.estimate}, defect = {report.defect}{note}"
    )
    _emit(args, report.to_dict(), human)
    return EXIT_OK


def _cmd_vanishing_dim(args) -> int:
    cfg = nodes_mod.load_node_file(args.nodes)
    d = args.degree
    if d is None:
        d = 3 * cfg.degree // 2 - 4
    dim = nodes_mod.vanishing_dimension(cfg, d)
    payload = {"mu": cfg.mu, "form_degree": d, "dimension": dim}
    _emit(args, payload, f"degree-{d} forms through the {cfg.mu} node(s): dimension {dim}")
    return EXIT_OK


def _cmd_verify_nodes(args) -> int:
    cfg = nodes_mod.load_node_file(args.nodes)
    if args.surface is not None:
        try:
            with open(args.surface, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read surface file: {exc}") from exc
        surface = parse_form(text, cfg.field)
        cfg = nodes_mod.NodeConfiguration(cfg.degree, cfg.field, cfg.points, surface)
    verdicts = nodes_mod.verify_configuration(cfg)
    payload = {
        "degree": cfg.degree,
        "mu": cfg.mu,
        "nodes": [
            {"point": [str(c) for c in pt], "is_node": ok}
            for pt, ok in zip(cfg.points, verdicts)
        ],
        "all_nodes": all(verdicts),
    }
    lines = [
        f"{'ok ' if ok else 'FAIL'} ({', '.join(map(str, pt))})"
        for pt, ok in zip(cfg.points, verdicts)
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if all(verdicts) else EXIT_VERIFICATION


def _cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.degree, args.mu)
    beauville = report.beauville_printed if args.paper_closed_form else report.beauville
    human = (
        f"degree {report.b}, mu = {report.mu}: beauville {beauville}, "
        f"improved {report.improved}, miyaoka max nodes {report.miyaoka_max}, "
        f"jacobian slice dim {report.jacobian_slice_dim}"
    )
    payload = report.to_dict()
    payload["beauville_form_used"] = "printed-closed-form" if args.paper_closed_form else "b2-based"
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_classify(args) -> int:
    table = classify_mod.classify_quartic_codes(args.mu, audit=args.audit)
    _emit(args, table.to_dict(), classify_mod.render_table(table))
    return EXIT_OK


def _cmd_code(args) -> int:
    pair = args.action == "isomorphic"
    if len(args.files) != (2 if pair else 1):
        wanted = "two code files" if pair else "one code file"
        raise InputError(f"code {args.action} needs exactly {wanted}")
    codes = [load_code_file(path) for path in args.files]
    if args.action == "info":
        code = codes[0]
        enum = weight_enumerator(code)
        payload = {
            "code": code_to_dict(code),
            "dim": code.dim,
            "strict_dim": code.strict_dim(),
            "weights": [
                {"weight": w, "parity": par, "count": c}
                for (w, par), c in sorted(enum.items())
            ],
        }
        human = (
            f"length {code.mu}, dim {code.dim} (strict subcode dim {code.strict_dim()}); "
            + "; ".join(f"{c} x {par}-{w}" for (w, par), c in sorted(enum.items()))
        )
        _emit(args, payload, human)
        return EXIT_OK
    if args.action == "canonical":
        digest = canonical_form(codes[0]).hex()
        _emit(args, {"canonical": digest}, digest)
        return EXIT_OK
    same = is_isomorphic(*codes)
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "not isomorphic")
    return EXIT_OK if same else EXIT_VERIFICATION


def _cmd_symmetroid_scan(args) -> int:
    if args.matrix is not None:
        matrix = symmetroid_mod.load_matrix_file(args.matrix)
    elif args.seed is not None:
        if args.uniform:
            matrix = symmetroid_mod.random_symmetric_matrix(args.prime, args.seed)
        else:
            matrix = symmetroid_mod.random_symmetroid_matrix(args.prime, args.seed)
    else:
        raise InputError("need --matrix FILE or --seed N")
    result = symmetroid_mod.scan_nodes_fp(matrix)
    payload = {"matrix": matrix.to_dict(), "scan": result.to_dict()}
    lines = [
        f"prime {result.prime}: {len(result.points)} rank<=2 point(s)"
        + (" [degenerate: positive-dimensional locus]" if result.degenerate else "")
    ]
    certified_ok = True
    if len(result.points) == 10:
        cert = symmetroid_mod.no_quadric_certificate(result.points, result.prime)
        payload["certificate"] = cert.to_dict()
        certified_ok = cert.certified
        lines.append(
            f"quadrics through the 10 points: evaluation rank {cert.rank} "
            f"({'no quadric passes; certified' if cert.certified else 'NOT certified'})"
        )
    for pt in result.points[:50]:
        lines.append("  (" + " : ".join(map(str, pt)) + ")")
    if len(result.points) > 50:
        lines.append(f"  ... {len(result.points) - 50} more")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if certified_ok else EXIT_VERIFICATION


def _cmd_hilbert_check(args) -> int:
    series_mod._check_order(args.order)
    coeffs = series_mod.symmetroid_hilbert_series(max(args.order, 5))
    ok = series_mod.symmetroid_hilbert_check()
    payload = {
        "coefficients": coeffs,
        "expected_leading": series_mod.SYMMETROID_LEADING_COEFFICIENTS,
        "match": ok,
    }
    human = (
        f"series coefficients up to t^{len(coeffs) - 1}: {coeffs}\n"
        f"leading terms 0,0,0,10,25,46 {'confirmed' if ok else 'NOT confirmed'}"
        " (in particular no quadric: coefficient 0 at t^2)"
    )
    _emit(args, payload, human)
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> _Parser:
    parser = _Parser(prog="nodalcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defect", help="defect of a double solid from nodes or counts")
    p.add_argument("--degree", type=int, help="even branch surface degree")
    p.add_argument("--nodes", help="node configuration JSON file")
    p.add_argument("--mu", type=int, help="node count (with --dim-m)")
    p.add_argument("--dim-m", type=int, dest="dim_m",
                   help="dimension of degree-(3b/2-4) forms through the nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("vanishing-dim", help="dimension of forms vanishing at the nodes")
    p.add_argument("--nodes", required=True, help="node configuration JSON file")
    p.add_argument("--degree", type=int,
                   help="form degree (default: 3b/2-4 for the file's surface degree)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_vanishing_dim)

    p = sub.add_parser("verify-nodes", help="check each listed point is a node of the surface")
    p.add_argument("--nodes", required=True, help="node configuration JSON file (with surface)")
    p.add_argument("--surface", help="text file with a polynomial, overriding the file's surface")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_nodes)

    p = sub.add_parser("bounds", help="code-dimension bounds and node caps")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--paper-closed-form", action="store_true",
                   help="print the classical closed form (2 below the b2-based value)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("classify-quartic", help="all even-set codes of a mu-nodal quartic")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--audit", action="store_true",
                   help="also list weight-admissible codes excluded by dimension bounds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("code", help="inspect or compare even-set code files")
    p.add_argument("action", choices=["info", "canonical", "isomorphic"])
    p.add_argument("files", nargs="+", help="one code JSON file (two for isomorphic)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("symmetroid-scan", help="rank<=2 locus of a symmetric linear matrix over F_p")
    p.add_argument("--matrix", help="matrix JSON file")
    p.add_argument("--seed", type=int, help="generate a seeded random matrix instead")
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--uniform", action="store_true",
                   help="with --seed: uniform random coefficients instead of the "
                        "six-point web construction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_symmetroid_scan)

    p = sub.add_parser("hilbert-check", help="series expansion check for the ten-node symmetroid")
    p.add_argument("--order", type=int, default=5,
                   help=f"last power of t to print, 0..{series_mod.ORDER_CAP} "
                        "(t^0..t^5 are always printed)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull, so the
        # flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
