#!/usr/bin/env python3
"""Run the finite-group theorem harness over the whole catalog and print a
survey table: abelianisation, F-A verdict, weight, and per-group check
status.  Exits nonzero on any mismatch."""

import argparse
import sys
import time

from groupcover import build_catalog, default_catalog_spec, verify_finite_theorems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=120)
    parser.add_argument("--nfa-max", type=int, default=3)
    args = parser.parse_args()

    groups = [
        g
        for g in build_catalog(default_catalog_spec())
        if g.order <= args.max_order
    ]
    nfa_range = tuple(range(1, args.nfa_max + 1))
    print(f"{'group':>10} {'order':>5} {'G^ab':>14} {'F-A':>5} {'w':>3}  checks")
    start = time.monotonic()
    failures = 0
    for g in groups:
        rep = verify_finite_theorems(g, nfa_range=nfa_range)
        status = "ok" if rep.passed else "FAIL " + ",".join(rep.failing())
        inv = rep.details["abelian_invariants"]
        fa = rep.details["fa_verdict"]
        w = rep.details.get("weight", "-")
        print(
            f"{g.name:>10} {g.order:>5} {inv.describe():>14} "
            f"{str(fa):>5} {w:>3}  {status}"
        )
        if not rep.passed:
            failures += 1
    elapsed = time.monotonic() - start
    print(f"\n{len(groups)} groups, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
