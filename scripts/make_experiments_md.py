#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every experiment harness.

Usage::

    python scripts/make_experiments_md.py [--scale 0.5] [--seed 0]
                                          [--output EXPERIMENTS.md]

At the default scale the full run takes about half a minute on the
compiled kernel and a few minutes on the pure-Python ``batched``
fallback (it simulates every (application, system) pair of Figures 5-8
and Table 4 plus the ablations); use ``--scale 0.2 --apps lu,radix``
for a quick smoke run.  The committed ``EXPERIMENTS.md`` is this
script's output at the defaults, and CI regenerates it to check that it
has not drifted.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.report import build_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--apps", type=str, default=None,
                        help="comma-separated application subset")
    parser.add_argument("--output", type=str,
                        default=str(Path(__file__).resolve().parent.parent
                                    / "EXPERIMENTS.md"))
    args = parser.parse_args()

    apps = ([a.strip() for a in args.apps.split(",") if a.strip()]
            if args.apps else None)

    def progress(stage: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] running {stage} ...", flush=True)

    report = build_report(scale=args.scale, seed=args.seed, apps=apps,
                          progress=progress)
    Path(args.output).write_text(report.to_markdown(), encoding="utf-8")

    checks = report.all_checks()
    passed = sum(1 for c in checks if c.passed)
    print(f"wrote {args.output}: {passed}/{len(checks)} shape checks passed "
          f"({report.elapsed_seconds:.0f}s)")
    for check in checks:
        if not check.passed:
            print(f"  FAIL: {check.claim}\n        measured {check.measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
