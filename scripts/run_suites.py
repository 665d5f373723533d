#!/usr/bin/env python3
"""Run every verification suite at its default scope and print a summary.

The empty space is always among the subjects (include_empty=True), so the
counts here differ from `powerspace verify`, which leaves it out unless
given --include-empty.

Usage: python3 scripts/run_suites.py [--jobs N] [--seed S]
"""

import argparse
import sys
import time

from powerspace.cli import _int_at_least
from powerspace.suites import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=_int_at_least(1), default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from dataclasses import replace
    from powerspace.config import DEFAULT_LIMITS

    limits = replace(DEFAULT_LIMITS, seed=args.seed)
    total_failed = 0
    for suite in SUITES:
        t0 = time.monotonic()
        report = run_suite(suite, include_empty=True, jobs=args.jobs, limits=limits)
        dt = time.monotonic() - t0
        total_failed += report.failed
        print(f"{suite:<16} subjects={len(report.subjects):<4} checks={len(report.records):<5} "
              f"failed={report.failed:<3} ({dt:.1f}s)")
        for line in report.lines():
            if line.startswith("FAIL"):
                print(f"  {line}")
    print("all suites green" if total_failed == 0 else f"{total_failed} failing checks")
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
