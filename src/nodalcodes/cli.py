"""Command-line interface.

One subcommand per computation, each with an optional ``--json`` payload.
Exit codes: 0 success (including all requested certifications passing),
1 usage error, 2 invalid data or parameters, 3 a certification or
verification that was run and failed, 141 (128 + SIGPIPE) when stdout was
closed before the output was written.

``run()`` is the process entry (``python -m nodalcodes.cli`` and the
``nodalcodes`` command): it calls ``main()``, then freezes the collector
before exiting, so the collections at interpreter shutdown skip the objects
of the finished call.  ``main()`` is the in-process API and never freezes.

A handler imports the node, field, form, scan and generator modules it
uses itself, so a ``bounds`` or ``code`` call, or a ``defect`` from counts,
compiles none of them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import bounds as bounds_mod
from . import classify as classify_mod
from . import series as series_mod
from .codes import canonical_form, code_to_dict, is_isomorphic, load_code_file, weight_enumerator, weight_rows
from .errors import InputError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFICATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cmd_defect(args) -> tuple[dict, str, bool]:
    if args.nodes is not None:
        from . import nodes as nodes_mod
        from .fields import QQ

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
        report = bounds_mod.defect(args.degree, args.mu, args.dim_m)
        note = ""
    human = (
        f"degree {report.b}, mu = {report.mu}: forms of degree {report.m_degree} "
        f"through the nodes form a space of dimension {report.dim_m}, "
        f"estimate {report.estimate}, defect = {report.defect}{note}"
    )
    return report.to_dict(), human, True


def _cmd_vanishing_dim(args) -> tuple[dict, str, bool]:
    from . import nodes as nodes_mod

    cfg = nodes_mod.load_node_file(args.nodes)
    d = bounds_mod.form_degree(cfg.degree) if args.degree is None else args.degree
    dim = nodes_mod.vanishing_dimension(cfg, d)
    payload = {"mu": cfg.mu, "form_degree": d, "dimension": dim}
    return payload, f"degree-{d} forms through the {cfg.mu} node(s): dimension {dim}", True


def _cmd_verify_nodes(args) -> tuple[dict, str, bool]:
    from . import nodes as nodes_mod
    from .forms import parse_form

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
    return payload, "\n".join(lines), all(verdicts)


def _cmd_bounds(args) -> tuple[dict, str, bool]:
    report = bounds_mod.bound_report(args.degree, args.mu)
    beauville = report.beauville_printed if args.paper_closed_form else report.beauville
    human = (
        f"degree {report.b}, mu = {report.mu}: beauville {beauville}, "
        f"improved {report.improved}, miyaoka max nodes {report.miyaoka_max}, "
        f"jacobian slice dim {report.jacobian_slice_dim}"
    )
    payload = report.to_dict()
    payload["beauville_form_used"] = "printed-closed-form" if args.paper_closed_form else "b2-based"
    return payload, human, True


def _cmd_classify(args) -> tuple[dict, str, bool]:
    table = classify_mod.classify_quartic_codes(args.mu, audit=args.audit)
    return table.to_dict(), classify_mod.render_table(table), True


def _cmd_code(args) -> tuple[dict, str, bool]:
    pair = args.action == "isomorphic"
    if len(args.files) != (2 if pair else 1):
        wanted = "two code files" if pair else "one code file"
        raise InputError(f"code {args.action} needs exactly {wanted}")
    codes = [load_code_file(path) for path in args.files]
    if args.action == "info":
        code = codes[0]
        rows, texts = weight_rows(weight_enumerator(code))
        payload = {
            "code": code_to_dict(code),
            "dim": code.dim,
            "strict_dim": code.strict_dim(),
            "weights": rows,
        }
        human = (
            f"length {code.mu}, dim {code.dim} (strict subcode dim {code.strict_dim()}); "
            + "; ".join(texts)
        )
        return payload, human, True
    if args.action == "canonical":
        digest = canonical_form(codes[0]).hex()
        return {"canonical": digest}, digest, True
    same = is_isomorphic(*codes)
    return {"isomorphic": same}, "isomorphic" if same else "not isomorphic", same


def _cmd_symmetroid_scan(args) -> tuple[dict, str, bool]:
    from . import symmetroid as symmetroid_mod

    if args.matrix is not None:
        matrix = symmetroid_mod.load_matrix_file(args.matrix)
    elif args.seed is not None:
        from . import seeded

        if args.uniform:
            matrix = seeded.random_symmetric_matrix(args.prime, args.seed)
        else:
            matrix = seeded.random_symmetroid_matrix(args.prime, args.seed)
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
    return payload, "\n".join(lines), certified_ok


def _cmd_hilbert_check(args) -> tuple[dict, str, bool]:
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
    return payload, human, ok


def build_parser() -> _Parser:
    # --help gives the docstring's first two paragraphs, the commands and the
    # exit codes; -OO strips the docstring
    description = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None
    parser = _Parser(prog="nodalcodes", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="print the JSON payload")
        p.set_defaults(func=func)
        return p

    p = command("defect", _cmd_defect, "defect of a double solid from nodes or counts")
    p.add_argument("--degree", type=int, help="even branch surface degree")
    p.add_argument("--nodes", help="node configuration JSON file")
    p.add_argument("--mu", type=int, help="node count (with --dim-m)")
    p.add_argument("--dim-m", type=int, dest="dim_m",
                   help="dimension of degree-(3b/2-4) forms through the nodes")

    p = command("vanishing-dim", _cmd_vanishing_dim, "dimension of forms vanishing at the nodes")
    p.add_argument("--nodes", required=True, help="node configuration JSON file")
    p.add_argument("--degree", type=int,
                   help="form degree (default: 3b/2-4 for the file's surface degree)")

    p = command("verify-nodes", _cmd_verify_nodes,
                "check each listed point is a node of the surface")
    p.add_argument("--nodes", required=True, help="node configuration JSON file (with surface)")
    p.add_argument("--surface", help="text file with a polynomial, overriding the file's surface")

    p = command("bounds", _cmd_bounds, "code-dimension bounds and node caps")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--paper-closed-form", action="store_true",
                   help="print the classical closed form (2 below the b2-based value)")

    p = command("classify-quartic", _cmd_classify, "all even-set codes of a mu-nodal quartic")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--audit", action="store_true",
                   help="also list weight-admissible codes excluded by dimension bounds")

    p = command("code", _cmd_code, "inspect or compare even-set code files")
    p.add_argument("action", choices=["info", "canonical", "isomorphic"])
    p.add_argument("files", nargs="+", help="one code JSON file (two for isomorphic)")

    p = command("symmetroid-scan", _cmd_symmetroid_scan,
                "rank<=2 locus of a symmetric linear matrix over F_p")
    p.add_argument("--matrix", help="matrix JSON file")
    p.add_argument("--seed", type=int, help="generate a seeded random matrix instead")
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--uniform", action="store_true",
                   help="with --seed: uniform random coefficients instead of the "
                        "six-point web construction")

    p = command("hilbert-check", _cmd_hilbert_check,
                "series expansion check for the ten-node symmetroid")
    p.add_argument("--order", type=int, default=5,
                   help=f"last power of t to print, 0..{series_mod.ORDER_CAP} "
                        "(t^0..t^5 are always printed)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # each handler returns its payload, its text and whether every check it ran passed
        payload, human, ok = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else human)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return EXIT_OK if ok else EXIT_VERIFICATION
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


def run() -> None:
    """Run ``main()`` on ``sys.argv`` and exit the process with its code.

    Every object still alive goes into the permanent generation first, which
    the collections at interpreter shutdown skip; atexit handlers, the flush
    of stdout and module teardown run as before.  A long-lived process must
    not freeze its heap, or it never collects the cycles it drops later, so
    only the process entry does.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
