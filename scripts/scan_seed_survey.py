#!/usr/bin/env python3
"""Survey seeded symmetroid scans over F_p: point counts and certificates.

For each seed a symmetroid matrix with fully rational rank-2 locus is
generated (web of quadrics through six random points), scanned, and, when
the scan finds exactly ten points, the no-quadric certificate is run.
With --uniform the matrices are uniform random instead, which demonstrates
how rarely the ten geometric points are all rational in that model.  Each
line reports the time of the scan alone, in milliseconds.  An invalid
prime or seed count ends with exit 2 and one ``error:`` line, as in the CLI.

Usage: python scripts/scan_seed_survey.py [--prime 101] [--seeds 20] [--uniform]
"""

import argparse
import sys
import time

from nodalcodes.errors import DomainError, InputError
from nodalcodes.symmetroid import (
    no_quadric_certificate,
    random_symmetric_matrix,
    random_symmetroid_matrix,
    scan_nodes_fp,
)


def survey(prime: int, seeds: int, uniform: bool) -> None:
    if seeds < 0:
        raise DomainError(f"need a non-negative seed count, got {seeds}")
    generator = random_symmetric_matrix if uniform else random_symmetroid_matrix
    ok = degenerate = 0
    for seed in range(seeds):
        matrix = generator(prime, seed)
        start = time.perf_counter()
        result = scan_nodes_fp(matrix)
        ms = (time.perf_counter() - start) * 1000
        line = f"seed {seed:3d}: {len(result.points):4d} point(s) [scan {ms:.1f} ms]"
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
    print(f"\n{seeds} seeds at p={prime}: {ok} ten-point certified, {degenerate} degenerate")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=101)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--uniform", action="store_true")
    args = parser.parse_args()
    try:
        survey(args.prime, args.seeds, args.uniform)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
