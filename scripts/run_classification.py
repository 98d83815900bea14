#!/usr/bin/env python3
"""Print the full classification of quartic even-set codes, mu = 6..16.

Usage: python scripts/run_classification.py [--audit]
"""

import argparse
import time

from nodalcodes.classify import classify_quartic_codes, render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--audit", action="store_true",
                        help="also show weight-admissible codes excluded by dimension bounds")
    args = parser.parse_args()

    start = time.monotonic()
    for mu in range(6, 17):
        table = classify_quartic_codes(mu, audit=args.audit)
        print(render_table(table))
        print()
    print(f"total {time.monotonic() - start:.2f}s")


if __name__ == "__main__":
    main()
