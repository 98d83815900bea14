#!/usr/bin/env python3
"""Survey seeded symmetroid scans over F_p: point counts and certificates.

For each seed a symmetroid matrix with fully rational rank-2 locus is
generated (web of quadrics through six random points), scanned, and, when
the scan finds exactly ten points, the no-quadric certificate is run.
With --uniform the matrices are uniform random instead, which demonstrates
how rarely the ten geometric points are all rational in that model.

Usage: python scripts/scan_seed_survey.py [--prime 101] [--seeds 20] [--uniform]
"""

import argparse
import time

from nodalcodes.symmetroid import (
    no_quadric_certificate,
    random_symmetric_matrix,
    random_symmetroid_matrix,
    scan_nodes_fp,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=101)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--uniform", action="store_true")
    args = parser.parse_args()

    generator = random_symmetric_matrix if args.uniform else random_symmetroid_matrix

    ok = degenerate = 0
    for seed in range(args.seeds):
        t0 = time.monotonic()
        matrix = generator(args.prime, seed)
        result = scan_nodes_fp(matrix)
        dt = time.monotonic() - t0
        line = f"seed {seed:3d}: {len(result.points):4d} point(s) [{dt:.1f}s]"
        if result.degenerate:
            degenerate += 1
            line += "  DEGENERATE (more than 10 points: positive-dimensional locus)"
        elif len(result.points) == 10:
            cert = no_quadric_certificate(result.points, result.prime)
            line += f"  quadric-evaluation rank {cert.rank}"
            line += "  certified" if cert.certified else "  NOT certified"
            if cert.certified:
                ok += 1
        print(line, flush=True)
    print(
        f"\n{args.seeds} seeds at p={args.prime}: {ok} ten-point certified, "
        f"{degenerate} degenerate"
    )


if __name__ == "__main__":
    main()
